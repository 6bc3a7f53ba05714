package repro.core.sim

/** The similarity operator as first written, independent of
  * [[Similarity.Aligner]]: a full (n+1)×(m+1) matrix of doubles, match +1,
  * mismatch -1, gap -0.5.
  */
object Reference {
  def swg(a: String, b: String): Double = {
    if (a.isEmpty || b.isEmpty) return 0.0
    val s = a.toLowerCase; val t = b.toLowerCase
    val h = Array.ofDim[Double](s.length + 1, t.length + 1)
    var best = 0.0
    for (i <- 1 to s.length; j <- 1 to t.length) {
      val sub = if (s(i - 1) == t(j - 1)) 1.0 else -1.0
      h(i)(j) = math.max(0.0, math.max(h(i - 1)(j - 1) + sub, math.max(h(i - 1)(j) - 0.5, h(i)(j - 1) - 0.5)))
      best = math.max(best, h(i)(j))
    }
    best / math.min(s.length, t.length).toDouble
  }

  def sim(a: String, b: String): Double = (swg(a, b) + Similarity.lengthSim(a, b)) / 2.0
}
