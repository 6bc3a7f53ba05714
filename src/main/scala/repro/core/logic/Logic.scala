package repro.core.logic

/** First-order logic core for DLearn: terms, literals, Horn clauses.
  *
  * Everything is an immutable case class, so clauses can be shared across the
  * learner's worker threads without copying. Predicate names of relation
  * literals are the relation names of the schema; one built-in predicate
  * exists: similarity (`Literal.Sim`, from MD matches).
  */
sealed trait Term extends Serializable {
  /** Rendering used in clause pretty-printing. */
  def render: String
}

/** A logical variable. Names are globally unique within a clause. */
final case class Var(name: String) extends Term {
  override def render: String = name
}

/** A constant (all values are strings at this layer, like the paper's VoltDB
  * backend, which compares attribute values as domain values).
  */
final case class Const(value: String) extends Term {
  override def render: String = "\"" + value + "\""
}

/** A literal: predicate applied to terms.
  *
  * @param pred  relation name, or [[Literal.Sim]]
  * @param args  argument terms, arity = relation arity (2 for sim)
  */
final case class Literal(pred: String, args: Vector[Term]) extends Serializable {
  def isSim: Boolean = pred == Literal.Sim
  /** True for literals over schema relations (not the built-in). */
  def isRel: Boolean = !isSim

  def vars: Set[Var] = args.collect { case v: Var => v }.toSet

  def render: String = pred + "(" + args.map(_.render).mkString(", ") + ")"
}

object Literal {
  /** Similarity built-in predicate `x ≈ y` (symmetric). */
  val Sim = "≈"

  def sim(a: Term, b: Term): Literal = Literal(Sim, Vector(a, b))
}

/** A Horn clause `head :- body`.
  *
  * Body order matters: bottom-clause construction emits literals in BFS
  * discovery order and ARMG scans them in that order (the paper's "total
  * order ... in each clause in the hypothesis space"). A clause carries no
  * CFD repair literals: they are a function of its body and the CFDs
  * (paper Sec. 3.2), which `Expand` computes where coverage needs them.
  */
final case class Clause(head: Literal, body: Vector[Literal]) extends Serializable {

  /** This clause compiled for θ-subsumption and ARMG, built on first use and
    * shared by every test of the clause.
    */
  @transient private[core] lazy val compiled: repro.core.learn.CompiledClause =
    new repro.core.learn.CompiledClause(this)

  /** All head variables appear in some body literal — required for a clause
    * to be a valid (range-restricted) definition.
    */
  def headConnected: Boolean = {
    val bodyVars: Set[Var] = body.flatMap(_.vars).toSet
    head.vars.subsetOf(bodyVars)
  }

  /** Keep only body literals transitively connected to the head through
    * shared variables (the paper's head-connectedness). Built-in literals
    * (sim) act as connectors but cannot be the sole reason a relation
    * literal is retained unless they link it to the connected component.
    */
  def headConnectedBody: Clause = {
    var reached: Set[Var] = head.vars
    var keep    = Vector.empty[Literal]
    var pending = body
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
    copy(body = body.filter(keepSet.contains))
  }

  /** Drop sim literals that no longer touch any relation literal's
    * variable (the paper removes restriction literals whose variables vanish
    * from all schema-relation literals).
    */
  def dropDanglingBuiltins: Clause = {
    val relVars: Set[Var] = body.filter(_.isRel).flatMap(_.vars).toSet ++ head.vars
    copy(body = body.filter(l => l.isRel || l.vars.forall(relVars.contains)))
  }

  /** Fixpoint of head-connectivity pruning and dangling-builtin removal:
    * removing a similarity literal can disconnect a relation
    * literal and vice versa, so iterate until stable.
    */
  def normalized: Clause = {
    var cur  = this
    var prev: Clause = null
    while (cur != prev) {
      prev = cur
      cur = cur.headConnectedBody.dropDanglingBuiltins
    }
    cur
  }

  def render: String = head.render + " :- " + body.map(_.render).mkString(", ")
}

/** A learned definition: a set of clauses with the same head predicate. */
final case class Definition(clauses: Vector[Clause]) extends Serializable {
  def isEmpty: Boolean = clauses.isEmpty
  def render: String   = clauses.map(_.render).mkString("\n")
}
