package repro.spark

import java.util.concurrent.atomic.AtomicLongArray

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.constraints.MD
import repro.core.db.{AttrRef, Database}
import repro.core.learn.Par
import repro.core.sim.Similarity

/** A single similarity match: a value of the paired attribute plus its
  * similarity score.
  */
final case class SimMatch(value: String, score: Double)

/** Precomputed top-k_m similarity matches for every MD attribute pair, in
  * both directions (the paper precomputes "the pairs of similar values",
  * Sec. 5; `k_m` is the "number of top similar matches" of Table 4).
  */
final class SimIndex(private val map: Map[String, Map[String, Vector[SimMatch]]]) {

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
  * top-1 resolution: a blocked join over two sets of distinct values, ranked
  * by one rule, score descending and then the other value ascending.
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

  /** The right side of a join, blocked: its distinct non-null values in
    * input order, and an inverted index from each blocking key to the
    * lowercase ranks of the values holding it.
    */
  private final class Blocked(right: Iterable[String]) {
    val values: Array[String] = right.iterator.filter(_ != null).distinct.toArray
    private val low   = values.map(_.toLowerCase)
    // rank -> index into values, by lowercase form
    private val order = values.indices.sortBy(low).toArray
    private val byKey = mutable.HashMap.empty[String, mutable.ArrayBuffer[Int]]
    for (r <- order.indices; k <- blockKeys(values(order(r)))) byKey.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += r

    /** Scores `a` against every value sharing a blocking key with it, by one
      * [[Similarity.Aligner]] that takes them in lowercase order, so
      * consecutive candidates share their prefix columns. Value `j` is scored
      * at `threshold(j)`, read just before its turn, and `hit(j, score)`
      * receives each score that reaches it.
      */
    def scan(a: String)(threshold: Int => Double)(hit: (Int, Double) => Unit): Unit = {
      val shared = mutable.BitSet.empty
      blockKeys(a).foreach(k => byKey.get(k).foreach(shared ++= _))
      if (shared.nonEmpty) {
        val al = new Similarity.Aligner(a)
        shared.foreach { r =>
          val j     = order(r)
          val t     = threshold(j)
          val score = al.sim(values(j), low(j), t)
          if (score >= t) hit(j, score)
        }
      }
    }
  }

  /** All pairs (a, b) of distinct values that share a blocking key and score
    * at least `threshold`, in the order of `left` and then of `right`. Each
    * `left` value is scanned through `Par`. Repeated input values count once;
    * nulls have no keys and never pair.
    */
  def pairs(left: Iterable[String], right: Iterable[String], threshold: Double): Vector[SimPair] = {
    val blocked = new Blocked(right)
    Par.map(left.iterator.distinct.toVector) { a =>
      val hits = mutable.ArrayBuffer.empty[(Int, Double)]
      blocked.scan(a)(_ => threshold)((j, score) => hits += ((j, score)))
      hits.sortInPlaceBy(_._1).iterator.map { case (j, score) => SimPair(a, blocked.values(j), score) }.toVector
    }.flatten
  }

  /** The `k` best matches seen so far, by descending score and then
    * ascending value. Not thread-safe.
    */
  private final class Best(k: Int) {
    private val values = new Array[String](k)
    private val scores = new Array[Double](k)
    private var size   = 0

    /** The k-th best score so far, or -∞ while fewer than `k` are held. */
    def kth: Double = if (size < k) Double.NegativeInfinity else scores(k - 1)

    def add(value: String, score: Double): Unit = {
      def ranksBefore(i: Int) = score > scores(i) || (score == scores(i) && value.compareTo(values(i)) < 0)
      var i = size
      if (size == k) {
        if (!ranksBefore(k - 1)) return
        i = k - 1
      } else size += 1
      while (i > 0 && ranksBefore(i - 1)) {
        values(i) = values(i - 1)
        scores(i) = scores(i - 1)
        i -= 1
      }
      values(i) = value
      scores(i) = score
    }

    def matches: Vector[SimMatch] = Vector.tabulate(size)(i => SimMatch(values(i), scores(i)))
  }

  /** The top-`k` lists of both directions of the join at [[DefaultThreshold]]:
    * each `left` value's `k` best `right` values, and each `right` value's
    * `k` best `left` values, ranked by score descending and then the other
    * value ascending. Values without a match have no entry.
    *
    * A top-k join (Xiao et al., *Top-k set similarity joins*, ICDE 2009): no
    * pair list is built. Each left value, scanned through `Par`, keeps its
    * own k best; each right value keeps its k best under its own lock, and
    * publishes its k-th score in `kthBits` to be read without the lock. A
    * candidate (a, b) is scored at `max(DefaultThreshold, min(kth(a),
    * kth(b)))`, so the kernel abandons it as soon as it cannot enter either
    * list, and a scored pair is offered to both.
    *
    * The lists are exact. A running k-th score is the k-th of some scored
    * pairs, so it never exceeds the final one; a pair is skipped only when
    * its score is strictly below both, and then it is in neither final list.
    * A tie with the k-th score is still scored. So each list is the
    * `(score desc, other asc)` top-k of all pairs, whatever the scheduling.
    */
  def topKJoin(
      left: Iterable[String],
      right: Iterable[String],
      k: Int,
  ): (Map[String, Vector[SimMatch]], Map[String, Vector[SimMatch]]) = {
    require(k > 0, s"k = $k")
    val blocked   = new Blocked(right)
    val bs        = blocked.values
    val rightBest = Array.fill(bs.length)(new Best(k))
    val kthBits   = new AtomicLongArray(bs.length)
    for (j <- bs.indices) kthBits.set(j, java.lang.Double.doubleToLongBits(Double.NegativeInfinity))
    val byLeft = Par.map(left.iterator.distinct.toVector) { a =>
      val best = new Best(k)
      blocked.scan(a) { j =>
        math.max(DefaultThreshold, math.min(best.kth, java.lang.Double.longBitsToDouble(kthBits.get(j))))
      } { (j, score) =>
        best.add(bs(j), score)
        val rb = rightBest(j)
        rb.synchronized {
          rb.add(a, score)
          kthBits.set(j, java.lang.Double.doubleToLongBits(rb.kth))
        }
      }
      a -> best.matches
    }
    val byRight = bs.indices.iterator.map(j => bs(j) -> rightBest(j).matches)
    (byLeft.iterator.filter(_._2.nonEmpty).toMap, byRight.filter(_._2.nonEmpty).toMap)
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
    * pairs of a database, from its collected domains, by one [[topKJoin]]
    * per pair; no Spark job runs. `spark` is unused and kept only for
    * existing callers.
    */
  def buildIndex(
      spark: SparkSession,
      db: Database,
      mds: Vector[MD],
      km: Int,
  ): SimIndex =
    SimIndex(mds.flatMap(_.pairs).flatMap { case (refA, refB) =>
      val (fwd, bwd) = topKJoin(db.domain(refA), db.domain(refB), km)
      Seq(SimIndex.dirKey(refA, refB) -> fwd, SimIndex.dirKey(refB, refA) -> bwd)
    }.toMap)
}
