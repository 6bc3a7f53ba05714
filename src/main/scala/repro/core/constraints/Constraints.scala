package repro.core.constraints

import repro.core.db.{AttrRef, RelSpec}
import repro.core.logic.{Const, Literal, Term}

/** Matching dependency (paper Sec. 2.2), in the normal form
  * `R1[A_1..n] ≈ R2[B_1..n] → R1[C] ⇌ R2[D]`.
  *
  * For identification MDs (all MDs in the paper's evaluation and ours), the
  * unified pair (C, D) coincides with an LHS pair, so we carry only the LHS
  * attribute pairs: each pair drives a similarity search during bottom-clause
  * construction (the paper's `ψ_{B_j ≈ M}(R_2)`), and a matched pair of values
  * yields a similarity literal whose repaired semantics is unification
  * (DESIGN.md §7.1).
  */
final case class MD(pairs: Vector[(AttrRef, AttrRef)]) {
  require(pairs.nonEmpty, "MD needs at least one attribute pair")
}

object MD {
  /** Convenience constructor for single-attribute identification MDs. */
  def apply(a: AttrRef, b: AttrRef): MD = MD(Vector((a, b)))
}

/** Conditional functional dependency `(X → A, tp)` over a single relation
  * (paper Sec. 2.3), normalized to a single right-hand-side attribute.
  *
  * @param lhsPattern per-LHS-attribute pattern: `None` is the unnamed
  *                   variable `-`; `Some(c)` a constant.
  * @param rhsPattern pattern for the RHS attribute.
  */
final case class CFD(
    rel: String,
    lhs: Vector[String],
    rhs: String,
    lhsPattern: Vector[Option[String]],
    rhsPattern: Option[String],
) {
  require(lhsPattern.length == lhs.length, "one pattern entry per LHS attribute")

  def lhsIdx(spec: RelSpec): Vector[Int] = lhs.map(spec.attrIdx)
  def rhsIdx(spec: RelSpec): Int         = spec.attrIdx(rhs)

  /** Tuple `t` (in `spec`'s attribute order) falls under the LHS pattern:
    * its LHS values are non-null and equal the pattern's constants.
    */
  def lhsMatches(spec: RelSpec, t: Array[String]): Boolean =
    lhsIdx(spec).lazyZip(lhsPattern).forall((i, p) => t(i) != null && p.forall(_ == t(i)))

  /** An RHS value satisfies the RHS pattern: the wildcard admits any, a constant only itself. */
  def rhsMatches(v: String): Boolean = rhsPattern.forall(_ == v)

  // A term matches a pattern entry by value; a variable matches only the
  // wildcard (conservative: unknown values are not reported as violations).
  private def termMatches(t: Term, pat: Option[String]): Boolean = (t, pat) match {
    case (_, None)           => true
    case (Const(v), Some(c)) => v == c
    case _                   => false
  }

  /** Violation test lifted to clause literals of this relation. Terms are
    * "equal" when syntactically identical and match patterns by `termMatches`.
    */
  def violatesLits(spec: RelSpec, l1: Literal, l2: Literal): Boolean = {
    if (l1.pred != rel || l2.pred != rel || l1 == l2) return false
    val r = rhsIdx(spec)
    lhsIdx(spec).lazyZip(lhsPattern).forall((i, p) => l1.args(i) == l2.args(i) && termMatches(l1.args(i), p)) &&
    !(l1.args(r) == l2.args(r) && termMatches(l1.args(r), rhsPattern))
  }

  /** One literal violating a constant RHS pattern on its own (`violatesLits`
    * excludes `l1 == l2`): its LHS matches and its RHS is another constant.
    */
  def violatesSelf(spec: RelSpec, l: Literal): Boolean =
    l.pred == rel && rhsPattern.isDefined &&
    lhsIdx(spec).lazyZip(lhsPattern).forall((i, p) => termMatches(l.args(i), p)) &&
    (l.args(rhsIdx(spec)) match {
      case Const(v) => !rhsMatches(v)
      case _        => false
    })
}

object CFD {
  /** Plain FD `X → A` as a CFD with an all-wildcard pattern tuple. */
  def fd(rel: String, lhs: Vector[String], rhs: String): CFD =
    CFD(rel, lhs, rhs, lhs.map(_ => None), None)
}
