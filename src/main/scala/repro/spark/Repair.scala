package repro.spark

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.constraints.CFD

/** Minimal CFD repair of a relation as a Catalyst pipeline — the preprocessing
  * step of the DLearn-Repaired baseline (paper Sec. 6.1.3: "we obtain this
  * repair using the minimal repair method").
  *
  * For each LHS group matching the pattern, conflicting RHS values are
  * unified to one canonical value: the RHS pattern constant when the CFD has
  * one, otherwise an *arbitrary* existing value of the group (deterministic
  * via a hash order — crucially, not necessarily the correct one, which is
  * exactly why the paper's repaired baseline loses accuracy as violations
  * grow). Tuples that become identical are deduplicated (value modification,
  * never tuple deletion, per paper Sec. 2.3).
  */
object Repair {

  private def lhsMatch(cfd: CFD): Column =
    cfd.lhs.zip(cfd.lhsPattern).map {
      case (c, Some(v)) => col(c) === lit(v)
      case (c, None)    => col(c).isNotNull
    }.reduce(_ && _)

  /** Repair one CFD on its relation's DataFrame. */
  def repairOne(df: DataFrame, cfd: CFD): DataFrame = {
    val groups = df
      .filter(lhsMatch(cfd))
      .groupBy(cfd.lhs.map(col): _*)
      .agg(
        countDistinct(col(cfd.rhs)).as("__nrhs"),
        expr(s"min_by(${cfd.rhs}, abs(hash(${cfd.rhs})))").as("__canon"),
      )
    val canon: Column = cfd.rhsPattern.map(lit(_)).getOrElse(col("__canon"))
    val violated: Column = cfd.rhsPattern match {
      case Some(c) => lhsMatch(cfd) && (col(cfd.rhs) =!= lit(c) || col(cfd.rhs).isNull)
      case None    => lhsMatch(cfd) && col("__nrhs") > 1
    }
    df.join(groups, cfd.lhs, "left")
      .withColumn(cfd.rhs, when(coalesce(violated, lit(false)), canon).otherwise(col(cfd.rhs)))
      .drop("__nrhs", "__canon")
      .select(df.columns.map(col): _*)
      .dropDuplicates()
  }

  /** Repair all CFDs over a set of relation DataFrames, iterating to a
    * fixpoint (a repair of one CFD may induce a violation of another over
    * the same relation — paper Sec. 4.1).
    */
  def repairAll(
      frames: Map[String, DataFrame],
      cfds: Vector[CFD],
      maxRounds: Int = 3,
  ): Map[String, DataFrame] = {
    var cur = frames
    for (_ <- 1 to maxRounds) {
      cur = cfds.foldLeft(cur) { (fs, cfd) =>
        fs.get(cfd.rel) match {
          case Some(df) => fs.updated(cfd.rel, repairOne(df, cfd))
          case None     => fs
        }
      }
    }
    cur
  }
}
