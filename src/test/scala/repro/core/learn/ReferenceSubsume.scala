package repro.core.learn

import repro.core.logic.Clause

/** θ-subsumption as first written, independent of the matcher's tracked
  * estimates: every node rescans each open literal's [[Matcher.estimate]].
  * Its search visits the same nodes in the same order as
  * [[Subsume.subsumes]], so the two agree at every node cap.
  */
object ReferenceSubsume {
  def subsumes(c: Clause, g: GIndex, nodeCap: Int): Boolean = {
    val cc = c.compiled
    val m  = new Matcher(cc, g)
    if (!m.unify(cc.head, g.head)) return false
    val n        = cc.args.length
    val done     = new Array[Boolean](n)
    val deferred = new Array[Boolean](n)
    var nodes    = 0
    def solve(remaining: Int): Boolean = {
      if (remaining == 0) return true
      nodes += 1
      if (nodes > nodeCap) return false
      var best    = -1
      var bestEst = 0
      var j       = 0
      while (j < n) {
        if (!done(j)) {
          val est = if (deferred(j) && m.openSim(j)) Int.MaxValue else m.estimate(j)
          if (best < 0 || est < bestEst) { best = j; bestEst = est }
        }
        j += 1
      }
      if (bestEst == Int.MaxValue) return true
      done(best) = true
      var hit = m.extend(best)(solve(remaining - 1))
      done(best) = false
      if (!hit && m.openSim(best)) {
        deferred(best) = true
        hit = solve(remaining)
        deferred(best) = false
      }
      hit
    }
    solve(n)
  }
}
