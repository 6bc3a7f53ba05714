package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.constraints.MD
import repro.core.db.AttrRef

/** Castor-Clean preprocessing (paper Sec. 6.1.3): "resolve the
  * heterogeneities between entity names in attributes that appear in an MD by
  * matching each entity in one database with the most similar entity in the
  * other database ... then learn over the unified and clean database."
  *
  * For each MD pair (A, B), every distinct value of B is replaced by its
  * top-1 most-similar value of A (when the similarity clears the threshold),
  * using the same similarity operator as DLearn. Because top-1 matching
  * commits to a single alternative, near-duplicate entities (the paper's
  * Star Wars episodes) can be resolved to the wrong entity — the systematic
  * error that lets DLearn beat this baseline.
  */
object Resolution {

  /** Mapping b → best matching a (single row per b), from the similarity
    * join and ranking rule of DLearn's index. Inputs are single-column
    * DataFrames named `a` and `b`, collected to the driver.
    */
  def top1Mapping(left: DataFrame, right: DataFrame, threshold: Double): DataFrame = {
    val spark = left.sparkSession
    import spark.implicits._
    val ps = SimJoin.pairs(SimJoin.values(left, "a"), SimJoin.values(right, "b"), threshold)
    SimJoin.topK(ps, _.b, _.a, 1).toSeq.map { case (b, ms) => (b, ms.head.value) }.toDF("__from", "__to")
  }

  /** Replace values of `ref`'s column in its relation frame via the mapping. */
  def replaceValues(df: DataFrame, attr: String, mapping: DataFrame): DataFrame =
    df.join(mapping, df(attr) === mapping("__from"), "left")
      .withColumn(attr, coalesce(col("__to"), col(attr)))
      .drop("__from", "__to")

  /** Resolve all MD attribute pairs over the relation frames: unify each
    * second-side (B) attribute's values into the first side's (A) vocabulary.
    */
  def resolveAll(
      spark: SparkSession,
      frames: Map[String, DataFrame],
      mds: Vector[MD],
      threshold: Double = SimJoin.DefaultThreshold,
  ): Map[String, DataFrame] = {
    var cur = frames
    for (md <- mds; (refA, refB) <- md.pairs) {
      val left  = cur(refA.rel).select(col(refA.attr).as("a"))
      val right = cur(refB.rel).select(col(refB.attr).as("b"))
      val mapping = top1Mapping(left, right, threshold)
      cur = cur.updated(refB.rel, replaceValues(cur(refB.rel), refB.attr, mapping))
    }
    cur
  }
}
