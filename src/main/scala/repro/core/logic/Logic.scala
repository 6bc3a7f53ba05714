package repro.core.logic

import java.util.Arrays

import scala.collection.mutable

/** First-order logic core for DLearn: terms, literals, Horn clauses.
  *
  * Everything is an immutable case class, so clauses can be shared across the
  * learner's worker threads without copying. Predicate names of relation
  * literals are the relation names of the schema; one built-in predicate
  * exists: similarity (`Literal.Sim`, from MD matches).
  */
sealed trait Term {
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
final case class Literal(pred: String, args: Vector[Term]) {
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
final case class Clause(head: Literal, body: Vector[Literal]) {

  /** This clause compiled for θ-subsumption and ARMG, built on first use and
    * shared by every test of the clause.
    */
  private[core] lazy val compiled: repro.core.learn.CompiledClause =
    new repro.core.learn.CompiledClause(this)

  /** All head variables appear in some body literal — required for a clause
    * to be a valid (range-restricted) definition.
    */
  def headConnected: Boolean = {
    val bodyVars: Set[Var] = body.flatMap(_.vars).toSet
    head.vars.subsetOf(bodyVars)
  }

  /** Keep the body literals that survive two prunings, repeated until
    * neither removes anything (removing a similarity literal can disconnect
    * a relation literal and vice versa):
    *  - head-connectedness: a literal stays when it is ground or shares a
    *    variable with the head, directly or through kept literals of either
    *    kind;
    *  - dangling built-ins: a similarity literal stays only while each of its
    *    variables occurs in the head or in a kept relation literal (the paper
    *    removes restriction literals whose variables vanish from all
    *    schema-relation literals).
    * Body order is kept.
    */
  def normalized: Clause = {
    val ids = mutable.HashMap.empty[Var, Int]
    def varIds(l: Literal): Array[Int] =
      l.args.iterator.collect { case v: Var => ids.getOrElseUpdate(v, ids.size) }.toArray
    val headVars = varIds(head)
    val litVars  = body.iterator.map(varIds).toArray
    val isSim    = body.iterator.map(_.isSim).toArray
    val n        = litVars.length
    val alive    = Array.fill(n)(true)
    val marked   = new Array[Boolean](ids.size)
    val kept     = new Array[Boolean](n)
    var nAlive   = n
    var removed  = true
    while (removed) {
      removed = false
      // Head-connectedness: mark the variables reached from the head.
      Arrays.fill(marked, false)
      headVars.foreach(marked(_) = true)
      Arrays.fill(kept, false)
      var grew = true
      while (grew) {
        grew = false
        var i = 0
        while (i < n) {
          if (alive(i) && !kept(i) && (litVars(i).isEmpty || litVars(i).exists(marked(_)))) {
            kept(i) = true
            litVars(i).foreach(marked(_) = true)
            grew = true
          }
          i += 1
        }
      }
      var i = 0
      while (i < n) {
        if (alive(i) && !kept(i)) { alive(i) = false; nAlive -= 1; removed = true }
        i += 1
      }
      // Dangling built-ins: mark the variables of the head and relation literals.
      Arrays.fill(marked, false)
      headVars.foreach(marked(_) = true)
      i = 0
      while (i < n) {
        if (alive(i) && !isSim(i)) litVars(i).foreach(marked(_) = true)
        i += 1
      }
      i = 0
      while (i < n) {
        if (alive(i) && isSim(i) && !litVars(i).forall(marked(_))) { alive(i) = false; nAlive -= 1; removed = true }
        i += 1
      }
    }
    if (nAlive == n) this else copy(body = body.indices.iterator.filter(alive(_)).map(body).toVector)
  }

  def render: String = head.render + " :- " + body.map(_.render).mkString(", ")
}

/** A learned definition: a set of clauses with the same head predicate. */
final case class Definition(clauses: Vector[Clause]) {
  def isEmpty: Boolean = clauses.isEmpty
  def render: String   = clauses.map(_.render).mkString("\n")
}
