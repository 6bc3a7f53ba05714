package repro.spark

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.constraints.CFD

/** Minimal CFD repair as first written, a Catalyst pipeline independent of
  * [[Repair]]: per CFD, a `groupBy` on the LHS with `min_by(rhs,
  * abs(hash(rhs)))` for the canonical RHS, joined back to the relation, then
  * `dropDuplicates`; every CFD in turn, for three rounds. The driver
  * repair must give the same tuples, as multisets.
  */
object ReferenceRepair {

  private def lhsMatch(cfd: CFD): Column =
    cfd.lhs.zip(cfd.lhsPattern).map {
      case (c, Some(v)) => col(c) === lit(v)
      case (c, None)    => col(c).isNotNull
    }.reduce(_ && _)

  private def repairOne(df: DataFrame, cfd: CFD): DataFrame = {
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
      .select(df.columns.toIndexedSeq.map(col): _*)
      .dropDuplicates()
  }

  def repairAll(frames: Map[String, DataFrame], cfds: Vector[CFD]): Map[String, DataFrame] = {
    var cur = frames
    for (_ <- 1 to 3) {
      cur = cfds.foldLeft(cur) { (fs, cfd) =>
        fs.get(cfd.rel) match {
          case Some(df) => fs.updated(cfd.rel, repairOne(df, cfd).localCheckpoint())
          case None     => fs
        }
      }
    }
    cur
  }
}
