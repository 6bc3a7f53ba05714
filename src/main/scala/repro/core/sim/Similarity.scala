package repro.core.sim

/** String similarity operator used by DLearn (paper Sec. 5):
  * the average of the Smith-Waterman-Gotoh similarity and the Length
  * similarity.
  *
  * - Smith-Waterman-Gotoh [Gotoh 1982]: best local alignment score with
  *   affine-ish gaps; here with match = +1, mismatch = -1 (case-insensitive,
  *   by lowercasing inputs), gap = -0.5, as in
  *   the SimMetrics implementation the ILP literature uses; normalized by the
  *   length of the shorter string so the result lies in [0, 1].
  * - Length similarity: |shorter| / |longer|.
  */
object Similarity extends Serializable {

  /** Smith-Waterman-Gotoh local alignment similarity, normalized to [0,1]. */
  def smithWatermanGotoh(a: String, b: String): Double = swgLowered(a.toLowerCase, b.toLowerCase)

  /** [[smithWatermanGotoh]] of two strings already lowercased. The DP runs in
    * integers scaled by 2 (match +2, mismatch -2, gap -1): every score of the
    * unscaled recurrence is a multiple of 0.5, so halving the best integer
    * score gives it exactly.
    */
  private def swgLowered(s: String, t: String): Double = {
    val n = s.length
    val m = t.length
    if (n == 0 || m == 0) return 0.0
    val gap = -1
    // Two-row DP over the local-alignment recurrence. Column 0 stays 0 in
    // both rows, and every other cell is written before it is read.
    var prev = new Array[Int](m + 1)
    var cur  = new Array[Int](m + 1)
    var best = 0
    var i = 1
    while (i <= n) {
      val si = s.charAt(i - 1)
      var j  = 1
      while (j <= m) {
        val sub = if (si == t.charAt(j - 1)) 2 else -2
        val v = math.max(0, math.max(prev(j - 1) + sub, math.max(prev(j) + gap, cur(j - 1) + gap)))
        cur(j) = v
        if (v > best) best = v
        j += 1
      }
      val tmp = prev; prev = cur; cur = tmp
      i += 1
    }
    (best / 2.0) / math.min(n, m).toDouble
  }

  /** Length similarity: |shorter| / |longer|, in [0,1]. */
  def lengthSim(a: String, b: String): Double = {
    if (a.isEmpty || b.isEmpty) return 0.0
    val la = a.length.toDouble
    val lb = b.length.toDouble
    math.min(la, lb) / math.max(la, lb)
  }

  /** DLearn's similarity operator: average of SWG and Length. */
  def sim(a: String, b: String): Double =
    if (a == null || b == null) 0.0
    else sim(a, a.toLowerCase, b, b.toLowerCase)

  /** [[sim]] of two non-null values, given with their lowercase forms `la`
    * and `lb`, so that a join lowercases each value once.
    */
  def sim(a: String, la: String, b: String, lb: String): Double =
    (swgLowered(la, lb) + lengthSim(a, b)) / 2.0
}
