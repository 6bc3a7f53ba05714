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
  *
  * Every score is computed by one kernel, [[Aligner]].
  */
object Similarity {

  /** Smith-Waterman-Gotoh local alignment similarity, normalized to [0,1]. */
  def smithWatermanGotoh(a: String, b: String): Double = {
    val lb = b.toLowerCase
    val al = new Aligner(a)
    if (al.n == 0 || lb.isEmpty) 0.0 else swgScore(al.best(lb, 0), math.min(al.n, lb.length))
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
    else new Aligner(a).sim(b, b.toLowerCase, Double.NegativeInfinity)

  /** The normalized SWG score of a scaled best alignment `best` between
    * strings whose shorter one has `mn` chars.
    */
  private def swgScore(best: Int, mn: Int): Double = (best / 2.0) / mn.toDouble

  /** [[sim]] from the scaled best alignment and the Length similarity `ls`. */
  private def simScore(best: Int, mn: Int, ls: Double): Double = (swgScore(best, mn) + ls) / 2.0

  /** What [[Aligner.sim]] returns for a pair below its threshold. */
  val Below: Double = -1.0

  /** The SWG kernel of one left value `a` against a run of right values.
    *
    * The DP runs in integers scaled by 2 (match +2, mismatch -2, gap -1):
    * every score of the unscaled recurrence is a multiple of 0.5, so halving
    * the best integer score gives it exactly. `a`'s lowercase chars are the
    * rows; the right value's are the columns, computed left to right. Column
    * `j` depends only on the right value's first `j` chars, so the kernel
    * keeps every column of the last right value and starts the next one after
    * their common prefix. Fed in sorted order, consecutive right values share
    * long prefixes, and their columns are computed once.
    *
    * It holds `(n + 1) (m + 1)` ints for the longest right value so far
    * (`n`, `m` the lengths). Not thread-safe: one kernel per left value and
    * thread.
    */
  final class Aligner(a: String) {
    private val rows   = a.toLowerCase.toCharArray
    private[Similarity] val n = rows.length
    private val stride = n + 1
    // Column j holds cols(j * stride + i) = H(i, j); row 0 and column 0 stay 0.
    private var cols   = new Array[Int](stride)
    // bestTo(j): the largest cell of columns 1..j.
    private var bestTo = new Array[Int](1)
    // The right value whose columns 0..valid are held.
    private var last   = ""
    private var valid  = 0

    /** The scaled best local alignment of `a` against the lowercase `t`, or
      * some value below `need` as soon as no cell can reach `need`.
      *
      * After column `j`, no later cell exceeds `colMax + 2 (m - j)`: a
      * column's largest cell grows by at most 2 per column, and an alignment
      * starting after column `j` scores at most 2 per remaining column.
      */
    private[Similarity] def best(t: String, need: Int): Int = {
      val m = t.length
      if (bestTo.length <= m) {
        val size = math.max(m + 1, 2 * bestTo.length)
        cols = java.util.Arrays.copyOf(cols, size * stride)
        bestTo = java.util.Arrays.copyOf(bestTo, size)
      }
      val reuse = math.min(valid, math.min(last.length, m))
      var j = 0
      while (j < reuse && last.charAt(j) == t.charAt(j)) j += 1
      last = t
      var best = bestTo(j)
      while (j < m) {
        val c = t.charAt(j)
        val p = j * stride
        val q = p + stride
        var diag = 0 // H(i - 1, j - 1)
        var up = 0   // H(i - 1, j)
        var colMax = 0
        var i = 1
        while (i <= n) {
          val left = cols(p + i) // H(i, j - 1)
          up = Math.max(Math.max(diag + (if (rows(i - 1) == c) 2 else -2), 0), Math.max(left, up) - 1)
          diag = left
          cols(q + i) = up
          colMax = Math.max(colMax, up)
          i += 1
        }
        j += 1
        best = Math.max(best, colMax)
        bestTo(j) = best
        if (Math.max(best, colMax + 2 * (m - j)) < need) {
          valid = j
          return -1
        }
      }
      valid = m
      best
    }

    /** `sim(a, b)` when it is at least `threshold`, else [[Below]]; `lb` is
      * `b.toLowerCase`. The DP stops once the pair cannot reach the
      * threshold: `need`, the least scaled best whose score reaches it, is
      * found with the score's own floating-point operations, so the test
      * `best >= need` decides exactly what `score >= threshold` would.
      */
    def sim(b: String, lb: String, threshold: Double): Double = {
      val m = lb.length
      if (n == 0 || m == 0) return if (0.0 >= threshold) 0.0 else Below
      val mn = math.min(n, m)
      val ls = lengthSim(a, b)
      val top = 2 * mn
      // The score is non-decreasing in `best`: start from the real-valued
      // solution and step to the least integer that reaches the threshold.
      var need = math.max(0.0, math.min(top + 1.0, math.ceil((2 * threshold - ls) * mn * 2))).toInt
      while (need > 0 && simScore(need - 1, mn, ls) >= threshold) need -= 1
      while (need <= top && simScore(need, mn, ls) < threshold) need += 1
      if (need > top) return Below
      val bst = best(lb, need)
      if (bst < need) Below else simScore(bst, mn, ls)
    }
  }
}
