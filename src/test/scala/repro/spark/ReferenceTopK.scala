package repro.spark

/** A sort-based reference for the top-k lists, independent of
  * [[SimJoin.topKJoin]]: every pair of [[SimJoin.pairs]], grouped by one side
  * and fully sorted by score descending, then the other value ascending, and
  * cut to `k`.
  */
object ReferenceTopK {

  /** The `k` best pairs per value of `key`, as matches on the `other` value. */
  def apply(
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

  /** Both directions' lists of the join of `left` and `right` at
    * [[SimJoin.DefaultThreshold]], as [[SimJoin.topKJoin]] returns them.
    */
  def join(left: Iterable[String], right: Iterable[String], k: Int)
      : (Map[String, Vector[SimMatch]], Map[String, Vector[SimMatch]]) = {
    val ps = SimJoin.pairs(left, right, SimJoin.DefaultThreshold)
    (apply(ps, _.a, _.b, k), apply(ps, _.b, _.a, k))
  }
}
