package repro.core.learn

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

import repro.core.logic.{Clause, Literal, ReferenceNormalize}

/** ARMG as first written, independent of [[Frontier]]: the frontier is a
  * `LinkedHashSet` of substitution copies, which keeps the first
  * `maxFrontier` distinct ones in insertion order, and [[ReferenceNormalize]]
  * in place of `Clause.normalized`.
  */
object ReferenceArmg {
  def armg(c: Clause, g: GIndex, maxFrontier: Int): Clause = {
    val cc = c.compiled
    val m  = new Matcher(cc, g)
    if (!m.unify(cc.head, g.head)) return c
    var frontier = Vector(ArraySeq.unsafeWrapArray(m.theta.clone))
    val kept     = Vector.newBuilder[Literal]
    for (i <- c.body.indices) {
      val ext = mutable.LinkedHashSet.empty[ArraySeq[Int]]
      val it  = frontier.iterator
      while (it.hasNext && ext.size < maxFrontier) {
        it.next().copyToArray(m.theta)
        m.extend(i) { ext += ArraySeq.unsafeWrapArray(m.theta.clone); ext.size >= maxFrontier }
      }
      if (ext.nonEmpty) {
        kept += c.body(i)
        frontier = ext.toVector
      }
    }
    ReferenceNormalize.normalized(Clause(c.head, kept.result()))
  }
}
