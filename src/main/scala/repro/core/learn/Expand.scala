package repro.core.learn

import scala.collection.mutable

import repro.core.constraints.CFD
import repro.core.db.Schema
import repro.core.logic._

/** Two body literals that jointly violate a CFD: the compact stand-in for the
  * paper's CFD repair literals (Sec. 3.2). For a constant-RHS CFD a single
  * literal can violate on its own; then `l1 == l2`.
  *
  * @param cfdId index of the CFD in the list passed to [[Expand.detectGroups]]
  */
final case class CfdGroup(cfdId: Int, l1: Literal, l2: Literal)

/** Enumeration of the CFD-repaired versions of a clause (paper Sec. 3.2:
  * "converting a clause with repair literals to a set of repaired clauses").
  *
  * Repair alternatives for a violating pair (l1, l2) of CFD (X → A, tp),
  * following the paper's minimal-repair restriction (Sec. 4.1):
  *  - unify the RHS using *current* terms: set l2[A] := l1[A], or l1[A] := l2[A]
  *    (when tp[A] is a constant, the only admissible unified value is that
  *    constant);
  *  - modify the LHS of either literal (fresh values → the literal no longer
  *    joins; after head-connectivity pruning this drops the literal).
  *
  * A repair may induce new violations (of another CFD over the same
  * relation); expansion re-detects and recurses, bounded by `maxDepth` and
  * `maxOut` (the paper's fixpoint, Sec. 4.1).
  *
  * Violations are detected here, from the body at hand, and nowhere else: a
  * clause stores none. Each check looks at one pair of literals, so the
  * violations of a sub-body are those of the full body among the literals
  * that remain (Theorem 4.12: dropping literals drops only the repair
  * literals that mention them).
  */
object Expand {

  /** Detect all CFD-violating literal pairs in a body. For constant-RHS CFDs
    * a single literal can violate on its own (the pair (t, t)); such groups
    * carry l1 == l2.
    */
  def detectGroups(body: Vector[Literal], cfds: Vector[CFD], schema: Schema): Vector[CfdGroup] = {
    val out = Vector.newBuilder[CfdGroup]
    for ((cfd, cfdId) <- cfds.zipWithIndex) {
      val lits = body.filter(l => l.isRel && l.pred == cfd.rel)
      val spec = schema(cfd.rel)
      var i = 0
      while (i < lits.length) {
        if (cfd.violatesSelf(spec, lits(i)))
          out += CfdGroup(cfdId, lits(i), lits(i))
        var j = i + 1
        while (j < lits.length) {
          if (cfd.violatesLits(spec, lits(i), lits(j))) out += CfdGroup(cfdId, lits(i), lits(j))
          j += 1
        }
        i += 1
      }
    }
    out.result()
  }

  /** Replace one body literal (first occurrence) with a new literal, then
    * dedupe the body preserving first-occurrence order.
    */
  private def replaceLit(body: Vector[Literal], from: Literal, to: Literal): Vector[Literal] = {
    val i = body.indexOf(from)
    val b = if (i < 0) body else body.updated(i, to)
    b.distinct
  }

  private def dropLit(body: Vector[Literal], l: Literal): Vector[Literal] = {
    val i = body.indexOf(l)
    if (i < 0) body else body.patch(i, Nil, 1)
  }

  /** All repaired versions of `c` (no violations of `cfds` remain), bounded.
    * A clause without violations expands to itself.
    */
  def repairs(
      c: Clause,
      cfds: Vector[CFD],
      schema: Schema,
      maxOut: Int,
      maxDepth: Int,
  ): Vector[Clause] = {
    val groups = detectGroups(c.body, cfds, schema)
    if (groups.isEmpty) return Vector(c)
    val out  = mutable.LinkedHashSet.empty[Clause]
    val seen = mutable.HashSet.empty[Clause]

    def post(head: Literal, body: Vector[Literal]): Clause = {
      val cl = Clause(head, body)
      if (head.vars.nonEmpty) cl.normalized // learnable clause: prune disconnected parts
      else cl                               // ground clause: keep as evidence set
    }

    def rec(cl: Clause, groups: Vector[CfdGroup], depth: Int): Unit = {
      if (out.size >= maxOut) return
      if (!seen.add(cl)) return
      if (groups.isEmpty || depth <= 0) {
        out += cl
        return
      }
      val g    = groups.head
      val cfd  = cfds(g.cfdId)
      val spec = schema(cfd.rel)
      val r    = cfd.rhsIdx(spec)
      val alts = mutable.ArrayBuffer.empty[Vector[Literal]]
      cfd.rhsPattern match {
        case Some(const) =>
          val t = Const(const): Term
          alts += replaceLit(replaceLit(cl.body, g.l1, g.l1.copy(args = g.l1.args.updated(r, t))),
                             g.l2, g.l2.copy(args = g.l2.args.updated(r, t)))
        case None =>
          if (g.l1 != g.l2) {
            alts += replaceLit(cl.body, g.l2, g.l2.copy(args = g.l2.args.updated(r, g.l1.args(r))))
            alts += replaceLit(cl.body, g.l1, g.l1.copy(args = g.l1.args.updated(r, g.l2.args(r))))
          }
      }
      // LHS modification: the literal stops joining — drop it.
      alts += dropLit(cl.body, g.l1)
      if (g.l1 != g.l2) alts += dropLit(cl.body, g.l2)
      for (body <- alts.distinct) {
        val next = post(cl.head, body)
        rec(next, detectGroups(next.body, cfds, schema), depth - 1)
      }
    }

    rec(c, groups, maxDepth)
    if (out.isEmpty) Vector(c) else out.toVector
  }
}
