package repro

import org.apache.spark.sql.functions._

/** The DuckDB oracle itself: it must reject a result that differs from the
  * SQL it is checked against.
  */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  test("oracle catches a wrong result") {
    val t   = Seq(("x", 1), ("x", 2), ("y", 3)).toDF("k", "v")
    val bad = t.groupBy("k").agg((count(lit(1)) + 1).cast("string").as("n"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(bad, "SELECT k, CAST(count(*) AS VARCHAR) n FROM t GROUP BY k", "t" -> t)
    }
  }
}
