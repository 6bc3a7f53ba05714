package repro.perfbench

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.core.constraints.MD
import repro.core.db.{AttrRef, Database}
import repro.core.learn.GroundEx
import repro.core.sim.Similarity
import repro.spark.{SimIndex, SimJoin}

/** Measurements and output checks of single layers, computed from outside
  * the program through its public API.
  */
object Layers {

  private def mdPairs(mds: Vector[MD]): Vector[(AttrRef, AttrRef)] = mds.flatMap(_.pairs)

  private def sortedDomain(db: Database, ref: AttrRef): Vector[String] = db.domain(ref).toVector.sorted

  /** Check every entry of a similarity index independently: at most `km`
    * matches per value, sorted by descending score, every score equal to a
    * fresh `Similarity.sim` of the pair and at least the join threshold, and
    * every match a value of the paired attribute. Returns the failures (at
    * most a few are spelled out) and the number of entries checked.
    */
  def checkIndex(idx: SimIndex, db: Database, mds: Vector[MD], km: Int): (Vector[String], Long) = {
    val bad     = Vector.newBuilder[String]
    var nBad    = 0
    var entries = 0L
    def fail(msg: String): Unit = { if (nBad < 5) bad += msg; nBad += 1 }
    for ((a, b) <- mdPairs(mds); (from, to, aSide) <- Seq((a, b, true), (b, a, false))) {
      val target = db.domain(to).toSet
      for (v <- db.domain(from)) {
        val ms = idx.matches(from, to, v)
        entries += ms.size
        if (ms.size > km) fail(s"${from.key}=$v has ${ms.size} > $km matches")
        if (ms.sliding(2).exists(p => p.size == 2 && p(0).score < p(1).score))
          fail(s"${from.key}=$v matches not sorted by score")
        for (m <- ms) {
          val fresh = if (aSide) Similarity.sim(v, m.value) else Similarity.sim(m.value, v)
          if (math.abs(fresh - m.score) > 1e-9) fail(s"sim($v, ${m.value}) = $fresh but index says ${m.score}")
          if (m.score < SimJoin.DefaultThreshold) fail(s"sim($v, ${m.value}) = ${m.score} below threshold")
          if (!target.contains(m.value)) fail(s"${m.value} is not a value of ${to.key}")
        }
      }
    }
    if (nBad > 5) bad += s"... ${nBad - 5} more index failures"
    (bad.result(), entries)
  }

  final case class JoinCounts(cross: Long, block: Long, scored: Long)

  /** Pair counts of the blocked similarity join, per MD attribute pair and
    * summed: the cross product of the two domains, the distinct pairs that
    * share a blocking key (`SimJoin.blockKeys`, counted without Spark), and
    * the pairs that pass the threshold (`SimJoin.simPairs(...).count()`).
    */
  def joinCounts(spark: SparkSession, db: Database, mds: Vector[MD]): JoinCounts = {
    import spark.implicits._
    var cross, block, scored = 0L
    for ((a, b) <- mdPairs(mds)) {
      val left  = sortedDomain(db, a)
      val right = sortedDomain(db, b)
      cross += left.size.toLong * right.size
      val byKey = mutable.HashMap.empty[String, mutable.ArrayBuffer[Int]]
      right.indices.foreach(j => SimJoin.blockKeys(right(j)).foreach(k => byKey.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += j))
      val seen = new java.util.BitSet(right.size)
      for (v <- left) {
        seen.clear()
        SimJoin.blockKeys(v).foreach(k => byKey.get(k).foreach(_.foreach(seen.set)))
        block += seen.cardinality()
      }
      scored += SimJoin.simPairs(left.toDF("a"), right.toDF("b"), SimJoin.DefaultThreshold).count()
    }
    JoinCounts(cross, block, scored)
  }

  /** Recall of the index's top-k_m lists against brute-force scoring of
    * the whole paired domain, over a fixed sample of `sample` values per
    * direction (every `step`-th value of the sorted domain). A match counts
    * as found when its score ties or beats the k_m-th best true score.
    * Returns (found, expected).
    */
  def recall(idx: SimIndex, db: Database, mds: Vector[MD], km: Int, sample: Int): (Long, Long) = {
    var found, expected = 0L
    for ((a, b) <- mdPairs(mds); (from, to, aSide) <- Seq((a, b, true), (b, a, false))) {
      val dom    = sortedDomain(db, from)
      val target = sortedDomain(db, to)
      val step   = math.max(1, dom.size / sample)
      for (v <- dom.indices.by(step).take(sample).map(dom)) {
        val scores = target.iterator
          .map(t => if (aSide) Similarity.sim(v, t) else Similarity.sim(t, v))
          .filter(_ >= SimJoin.DefaultThreshold)
          .toVector
          .sorted(Ordering[Double].reverse)
        if (scores.nonEmpty) {
          val kth = scores(math.min(km, scores.size) - 1)
          expected += math.min(km, scores.size)
          found += math.min(km, idx.matches(from, to, v).count(_.score >= kth - 1e-12))
        }
      }
    }
    (found, expected)
  }

  /** Literal statistics of ground bottom clauses: body sizes, similarity
    * literals, and (example, relation) pairs whose literal count reached
    * the `sampleSize` cap.
    */
  final case class BottomStats(lits: Vector[Int], simLits: Vector[Int], capHits: Int)

  def bottomStats(gs: Seq[GroundEx], sampleSize: Int): BottomStats = {
    val bodies = gs.map(_.raw.clause.body)
    BottomStats(
      bodies.map(_.size).toVector,
      bodies.map(_.count(_.isSim)).toVector,
      bodies.map(_.filter(_.isRel).groupBy(_.pred).count(_._2.size >= sampleSize)).sum,
    )
  }
}
