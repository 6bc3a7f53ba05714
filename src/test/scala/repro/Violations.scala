package repro

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.constraints.CFD

/** Violations of one CFD in a relation, for checking repairs and injected
  * noise.
  */
object Violations {

  /** Count the violating tuples: those in an LHS group (matching the LHS
    * pattern) with conflicting RHS values, or failing a constant RHS pattern.
    */
  def count(df: DataFrame, cfd: CFD): Long = {
    val lhsMatch: Column = cfd.lhs.zip(cfd.lhsPattern).map {
      case (c, Some(v)) => col(c) === lit(v)
      case (c, None)    => col(c).isNotNull
    }.reduce(_ && _)
    val groups = df
      .filter(lhsMatch)
      .groupBy(cfd.lhs.map(col): _*)
      .agg(countDistinct(col(cfd.rhs)).as("__nrhs"))
    val violated: Column = cfd.rhsPattern match {
      case Some(c) => lhsMatch && col(cfd.rhs) =!= lit(c)
      case None    => col("__nrhs") > 1
    }
    df.join(groups, cfd.lhs, "left").filter(coalesce(violated, lit(false))).count()
  }
}
