package repro.core.learn

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

import repro.core.logic.{Clause, Literal}

/** ProGolem-style asymmetric relative minimal generalization (ARMG), paper
  * Sec. 4.2: scan the (ordered) body of a clause, maintaining the frontier of
  * substitutions into the target example's ground bottom-clause; a literal
  * that empties the frontier is a *blocking literal* and is removed. The
  * result θ-subsumes the input (literal dropping only) and covers the target
  * example by construction; head-connectivity is restored afterwards, and
  * repair groups whose literals were dropped disappear (the repaired versions
  * of the result generalize the repaired versions of the input —
  * Theorem 4.12).
  */
object Generalize {

  /** The frontier holds at most `maxFrontier` distinct substitutions: the
    * first ones found, extending the previous frontier in its order.
    */
  def armg(c: Clause, g: GIndex, maxFrontier: Int = 256): Clause = {
    val cc = c.compiled
    val m  = new Matcher(cc, g)
    if (!m.unify(cc.head, g.head)) return c // heads incompatible — cannot generalize toward this example
    var frontier = Vector(ArraySeq.unsafeWrapArray(m.theta.clone))
    val kept     = Vector.newBuilder[Literal]
    for (i <- c.body.indices) {
      val ext = mutable.LinkedHashSet.empty[ArraySeq[Int]]
      val it  = frontier.iterator
      while (it.hasNext && ext.size < maxFrontier) {
        it.next().copyToArray(m.theta)
        m.extend(i) { ext += ArraySeq.unsafeWrapArray(m.theta.clone); ext.size >= maxFrontier }
      }
      // An empty extension marks a blocking literal: drop it, keep the frontier.
      if (ext.nonEmpty) {
        kept += c.body(i)
        frontier = ext.toVector
      }
    }
    Clause(c.head, kept.result(), c.groups).normalized.pruneGroups
  }
}
