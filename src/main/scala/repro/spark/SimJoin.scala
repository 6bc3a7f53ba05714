package repro.spark

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.constraints.MD
import repro.core.db.{AttrRef, Database}
import repro.core.learn.Par
import repro.core.sim.Similarity

/** A single similarity match: a value of the paired attribute plus its
  * similarity score.
  */
final case class SimMatch(value: String, score: Double) extends Serializable

/** Precomputed top-k_m similarity matches for every MD attribute pair, in
  * both directions (the paper precomputes "the pairs of similar values",
  * Sec. 5; `k_m` is the "number of top similar matches" of Table 4).
  */
final class SimIndex(private val map: Map[String, Map[String, Vector[SimMatch]]])
    extends Serializable {

  def matches(from: AttrRef, to: AttrRef, value: String): Vector[SimMatch] =
    map.get(SimIndex.dirKey(from, to)).flatMap(_.get(value)).getOrElse(Vector.empty)

  /** The same index truncated to a smaller k_m (entries are score-sorted, so
    * a prefix is exactly the top-k index) — lets one expensive similarity
    * join serve a whole k_m sweep.
    */
  def truncated(km: Int): SimIndex =
    new SimIndex(map.view.mapValues(_.view.mapValues(_.take(km)).toMap).toMap)
}

object SimIndex {
  def dirKey(from: AttrRef, to: AttrRef): String = s"${from.key}>${to.key}"
  val empty                                      = new SimIndex(Map.empty)
  def apply(map: Map[String, Map[String, Vector[SimMatch]]]): SimIndex = new SimIndex(map)
}

/** One scored pair of the similarity join: `a` is a value of an MD's first
  * attribute, `b` of its second, and `score` is `Similarity.sim(a, b)`.
  */
final case class SimPair(a: String, b: String, score: Double)

/** The similarity join behind DLearn's top-k_m index and Castor-Clean's
  * top-1 resolution: a blocked all-pairs join over two sets of distinct
  * values, then one ranking rule for the top-k per value.
  *
  * It runs on the driver. An MD attribute's domain is a few hundred to a few
  * thousand strings that the collected `Database` already holds, and an
  * in-memory inverted index joins them directly (Bayardo et al., *Scaling up
  * all-pairs similarity search*, WWW 2007), with no shuffle to schedule.
  */
object SimJoin {

  /** Blocking keys of a string: its alphanumeric tokens (lowercased). Values
    * sharing no token are never compared — standard token blocking for
    * similarity joins. The generators' perturbations alter at most one token,
    * so true counterparts always share a block.
    */
  def blockKeys(s: String): Seq[String] =
    if (s == null) Seq.empty
    else s.toLowerCase.split("[^a-z0-9]+").filter(_.nonEmpty).distinct.toSeq

  /** Default similarity threshold. Must exceed 0.5: the operator averages
    * SWG with Length similarity, so two unrelated equal-length strings
    * already score 0.5.
    */
  val DefaultThreshold = 0.6

  /** All pairs (a, b) of distinct values that share a blocking key and score
    * at least `threshold`, in the order of `left` and then of `right`. An
    * inverted index maps each key to the `right` values holding it; each
    * `left` value is scored against the distinct values of its keys' lists,
    * through `Par`, by one [[Similarity.Aligner]] that takes them in
    * lowercase order, so consecutive candidates share their prefix columns.
    * Repeated input values count once; nulls have no keys and never pair.
    */
  def pairs(left: Iterable[String], right: Iterable[String], threshold: Double): Vector[SimPair] = {
    val bs    = right.iterator.filter(_ != null).distinct.toArray
    val bLow  = bs.map(_.toLowerCase)
    // rank -> index into bs, by lowercase form; the inverted index holds ranks
    val order = bs.indices.sortBy(bLow).toArray
    val byKey = mutable.HashMap.empty[String, mutable.ArrayBuffer[Int]]
    for (r <- order.indices; k <- blockKeys(bs(order(r)))) byKey.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += r
    Par.map(left.iterator.distinct.toVector) { a =>
      val shared = mutable.BitSet.empty
      blockKeys(a).foreach(k => byKey.get(k).foreach(shared ++= _))
      val hits = mutable.ArrayBuffer.empty[(Int, Double)]
      if (shared.nonEmpty) {
        val al = new Similarity.Aligner(a)
        shared.foreach { r =>
          val j     = order(r)
          val score = al.sim(bs(j), bLow(j), threshold)
          if (score >= threshold) hits += ((j, score))
        }
      }
      hits.sortInPlaceBy(_._1).iterator.map { case (j, score) => SimPair(a, bs(j), score) }.toVector
    }.flatten
  }

  /** The `k` best pairs per value of `key`, as matches on the `other` value:
    * by descending score, ties broken by the ascending `other` value. This
    * is the one ranking rule of both index directions and of Castor-Clean.
    */
  def topK(
      pairs: Seq[SimPair],
      key: SimPair => String,
      other: SimPair => String,
      k: Int,
  ): Map[String, Vector[SimMatch]] = {
    val rank: java.util.Comparator[SimPair] = (x, y) => {
      val c = java.lang.Double.compare(y.score, x.score)
      if (c != 0) c else other(x).compareTo(other(y))
    }
    pairs.groupBy(key).map { case (v, ps) =>
      val sorted = ps.toArray
      java.util.Arrays.sort(sorted, rank)
      v -> sorted.iterator.take(k).map(p => SimMatch(other(p), p.score)).toVector
    }
  }

  /** The values of a string column, collected to the driver. */
  private[spark] def values(df: DataFrame, column: String): Vector[String] =
    df.select(column).collect().iterator.map(_.getString(0)).toVector

  /** [[pairs]] over DataFrames: inputs are single-column DataFrames named `a`
    * and `b`, collected to the driver; the result has columns `a`, `b`,
    * `score`.
    */
  def simPairs(left: DataFrame, right: DataFrame, threshold: Double): DataFrame = {
    val spark = left.sparkSession
    import spark.implicits._
    pairs(values(left, "a"), values(right, "b"), threshold).toDF()
  }

  /** Build the bidirectional top-k_m similarity index for all MD attribute
    * pairs of a database, from its collected domains; no Spark job runs.
    * `spark` is unused and kept only for existing callers.
    */
  def buildIndex(
      spark: SparkSession,
      db: Database,
      mds: Vector[MD],
      km: Int,
      threshold: Double = DefaultThreshold,
  ): SimIndex =
    SimIndex(mds.flatMap(_.pairs).flatMap { case (refA, refB) =>
      val ps = pairs(db.domain(refA), db.domain(refB), threshold)
      Seq(
        SimIndex.dirKey(refA, refB) -> topK(ps, _.a, _.b, km),
        SimIndex.dirKey(refB, refA) -> topK(ps, _.b, _.a, km),
      )
    }.toMap)
}
