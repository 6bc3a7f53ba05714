package repro.core.learn

import repro.core.constraints.CFD
import repro.core.db.{Example, Schema}
import repro.core.logic.Clause

/** A training/test example with its ground bottom-clause and the indexed
  * repaired versions of that ground clause.
  *
  * @param raw        index of the un-repaired ground bottom-clause (ARMG target)
  * @param expansions indexes of the CFD-repaired versions (coverage targets)
  * @param union      index over the union of all expansion bodies — since
  *                   every expansion's body is a subset of it, failing to
  *                   subsume the union refutes all expansions with a single
  *                   test (the dominant case: negatives that are not covered)
  */
final case class GroundEx(ex: Example, raw: GIndex, expansions: Vector[GIndex], union: GIndex)

/** Coverage testing under the paper's dirty-data semantics (Sec. 4.3):
  *
  *  - positive (Def. 3.4): **every** repaired version of the clause must
  *    θ-subsume **some** repaired version of the ground bottom-clause;
  *  - negative (Def. 3.6): **some** repaired version of the clause θ-subsumes
  *    **some** repaired version of the ground bottom-clause.
  *
  * MD repair literals need no expansion (Theorem 4.9: θ-subsumption is sound
  * and complete for MD-only repairs), so similarity literals are matched
  * directly; only CFD repairs are enumerated, those of `cfds`, which is
  * empty for the systems that ignore CFD violations.
  */
final class Coverage(cfds: Vector[CFD], schema: Schema, params: LearnParams) {

  /** Assemble a [[GroundEx]] from an already-built ground clause. An
    * expansion or union with the ground clause's head and body shares its
    * index, so an example without CFD repairs holds one index.
    */
  def groundFrom(e: Example, g: Clause): GroundEx = {
    val exp = Expand.repairs(g, cfds, schema, params.maxExpansions, params.maxExpandDepth)
    val raw = new GIndex(g)
    def index(c: Clause): GIndex = if (c == g) raw else new GIndex(c)
    val union =
      if (exp.lengthCompare(1) <= 0) raw
      else index(Clause(g.head, (g.body ++ exp.flatMap(_.body)).distinct))
    GroundEx(e, raw, exp.map(index), union)
  }

  /** Ground each example: build its ground bottom-clause and repaired versions. */
  def groundAll(builder: BottomBuilder, es: Seq[Example]): Vector[GroundEx] =
    Par.map(es)(e => groundFrom(e, builder.build(e, variabilize = false)))

  /** The repaired versions of a candidate clause, computed once per clause. */
  def expand(c: Clause): Vector[Clause] =
    Expand.repairs(c, cfds, schema, params.maxExpansions, params.maxExpandDepth)

  /** ∃-over-expansions with the union quick-reject. */
  private def someExpansion(ci: Clause, g: GroundEx): Boolean =
    g.expansions match {
      case Vector(only) => Subsume.subsumes(ci, only, params.nodeCap)
      case exps =>
        Subsume.subsumes(ci, g.union, params.nodeCap) &&
        exps.exists(gi => Subsume.subsumes(ci, gi, params.nodeCap))
    }

  /** Positive-coverage semantics (Def. 3.4). */
  def coversPos(cExp: Vector[Clause], g: GroundEx): Boolean =
    cExp.forall(ci => someExpansion(ci, g))

  /** Negative-coverage semantics (Def. 3.6). */
  def coversNeg(cExp: Vector[Clause], g: GroundEx): Boolean =
    cExp.exists(ci => someExpansion(ci, g))
}

/** What one clause covers among the training examples of one `learn` call:
  * the clause's repaired versions, computed once, and one decision per
  * example, made at most once. Positives are decided under Def. 3.4 (∀∃),
  * negatives under Def. 3.6 (∃∃). Decisions are held in dense arrays indexed
  * by the example's position in `pos` / `neg`.
  */
final class CoverageRecord(cov: Coverage, val clause: Clause, pos: Vector[GroundEx], neg: Vector[GroundEx]) {
  import CoverageRecord._

  private val expansion = cov.expand(clause)
  private val posState  = new Array[Byte](pos.length)
  private val negState  = new Array[Byte](neg.length)

  /** (positives covered among `ps`, negatives covered among `ns`), by
    * position; only undecided examples are tested.
    */
  def counts(ps: Seq[Int], ns: Seq[Int]): (Int, Int) = {
    decide(posState, ps)(i => cov.coversPos(expansion, pos(i)))
    decide(negState, ns)(i => cov.coversNeg(expansion, neg(i)))
    (ps.count(posState(_) == Covered), ns.count(negState(_) == Covered))
  }

  /** The positives among `ps` that the clause does not cover, in order. */
  def uncoveredPos(ps: Vector[Int]): Vector[Int] = {
    decide(posState, ps)(i => cov.coversPos(expansion, pos(i)))
    ps.filter(posState(_) == NotCovered)
  }

  private def decide(state: Array[Byte], ix: Seq[Int])(covers: Int => Boolean): Unit = {
    val todo = ix.filter(state(_) == Unknown)
    val hits = Par.map(todo)(covers)
    for (k <- todo.indices)
      state(todo(k)) = if (hits(k)) Covered else NotCovered
  }
}

private object CoverageRecord {
  val Unknown: Byte    = 0
  val Covered: Byte    = 1
  val NotCovered: Byte = 2
}
