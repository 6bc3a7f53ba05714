package repro.core.logic

/** `Clause.normalized` as first written, independent of its index-based
  * passes: each pruning rebuilds the clause from immutable sets, and the
  * fixpoint stops when a round leaves the clause equal to its input.
  */
object ReferenceNormalize {

  /** Keep only body literals transitively connected to the head through
    * shared variables (the paper's head-connectedness). Built-in literals
    * (sim) act as connectors but cannot be the sole reason a relation
    * literal is retained unless they link it to the connected component.
    */
  def headConnectedBody(c: Clause): Clause = {
    var reached: Set[Var] = c.head.vars
    var keep    = Vector.empty[Literal]
    var pending = c.body
    var changed = true
    while (changed) {
      changed = false
      val (in, out) = pending.partition(l => l.vars.exists(reached.contains) || l.vars.isEmpty)
      if (in.nonEmpty) {
        keep ++= in
        reached ++= in.flatMap(_.vars)
        pending = out
        changed = true
      }
    }
    // Preserve original body order.
    val keepSet = keep.toSet
    c.copy(body = c.body.filter(keepSet.contains))
  }

  /** Drop sim literals that no longer touch any relation literal's
    * variable (the paper removes restriction literals whose variables vanish
    * from all schema-relation literals).
    */
  def dropDanglingBuiltins(c: Clause): Clause = {
    val relVars: Set[Var] = c.body.filter(_.isRel).flatMap(_.vars).toSet ++ c.head.vars
    c.copy(body = c.body.filter(l => l.isRel || l.vars.forall(relVars.contains)))
  }

  /** Fixpoint of head-connectivity pruning and dangling-builtin removal. */
  def normalized(c: Clause): Clause = {
    var cur  = c
    var prev: Clause = null
    while (cur != prev) {
      prev = cur
      cur = dropDanglingBuiltins(headConnectedBody(cur))
    }
    cur
  }
}
