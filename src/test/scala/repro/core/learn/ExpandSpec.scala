package repro.core.learn

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.Props
import repro.core.constraints.CFD
import repro.core.db.{RelSpec, Schema}
import repro.core.logic._

class ExpandSpec extends AnyFunSuite {
  private val x = Var("x")
  private def C(v: String): Const = Const(v)

  private val schema = Schema(Vector(
    RelSpec("rating", Vector("id", "rating"), Set("rating")),
    RelSpec("r3", Vector("a", "b", "c"), Set.empty),
  ))
  private val fdRating = Vector(CFD.fd("rating", Vector("id"), "rating"))

  /** Repairs under the caps every learner run uses. */
  private val params = LearnParams()
  private def repairs(cl: Clause, cfds: Vector[CFD]): Vector[Clause] =
    Expand.repairs(cl, cfds, schema, params.maxExpansions, params.maxExpandDepth)

  private val head = Literal("t", Vector(x))
  private val lR   = Literal("rating", Vector(x, C("R")))
  private val lPG  = Literal("rating", Vector(x, C("PG")))

  test("detectGroups finds a violating pair") {
    val gs = Expand.detectGroups(Vector(lR, lPG), fdRating, schema)
    assert(gs == Vector(CfdGroup(0, lR, lPG)))
  }

  test("detectGroups ignores non-violating literals") {
    val other = Literal("rating", Vector(Var("y"), C("PG")))
    assert(Expand.detectGroups(Vector(lR, other), fdRating, schema).isEmpty)
  }

  test("detectGroups finds all pairs among three conflicting literals") {
    val lG = Literal("rating", Vector(x, C("G")))
    assert(Expand.detectGroups(Vector(lR, lPG, lG), fdRating, schema).size == 3)
  }

  test("detectGroups: constant-RHS CFD flags a single literal (self pair)") {
    val cfd = Vector(CFD("rating", Vector("id"), "rating", Vector(None), Some("R")))
    val gs  = Expand.detectGroups(Vector(lPG), cfd, schema)
    assert(gs == Vector(CfdGroup(0, lPG, lPG)))
    assert(Expand.detectGroups(Vector(lR), cfd, schema).isEmpty)
  }

  test("no live groups expands to the clause itself") {
    val cl = Clause(head, Vector(lR))
    assert(repairs(cl, fdRating) == Vector(cl))
  }

  test("wildcard RHS: repairs keep either conflicting value") {
    val cl     = Clause(head, Vector(lR, lPG))
    val bodies = repairs(cl, fdRating).map(_.body.toSet)
    assert(bodies.contains(Set(lR)), "keeping R must be a repair")
    assert(bodies.contains(Set(lPG)), "keeping PG must be a repair")
  }

  test("ground clause repairs keep both alternatives too") {
    val gR  = Literal("rating", Vector(C("o1"), C("R")))
    val gPG = Literal("rating", Vector(C("o1"), C("PG")))
    val cl  = Clause(Literal("t", Vector(C("e"))), Vector(gR, gPG))
    val bodies = repairs(cl, fdRating).map(_.body.toSet)
    assert(bodies.contains(Set(gR)))
    assert(bodies.contains(Set(gPG)))
  }

  test("constant RHS pattern repairs to the pattern constant") {
    val cfds = Vector(CFD("rating", Vector("id"), "rating", Vector(None), Some("R")))
    val cl   = Clause(head, Vector(lPG))
    val reps = repairs(cl, cfds)
    assert(reps.exists(_.body.contains(Literal("rating", Vector(x, C("R"))))))
    // dropping the literal is also admissible (LHS modification)
    assert(reps.exists(_.body.isEmpty))
  }

  test("repairs where literals differ beyond the RHS keep both literals") {
    val cfds = Vector(CFD.fd("r3", Vector("a"), "b"))
    val l1   = Literal("r3", Vector(x, C("b1"), C("c1")))
    val l2   = Literal("r3", Vector(x, C("b2"), C("c2")))
    val cl   = Clause(head, Vector(l1, l2))
    val reps = repairs(cl, cfds)
    // unify-to-l1: l2's b becomes b1 but c2 stays → two literals remain
    assert(reps.exists(r =>
      r.body.toSet == Set(l1, Literal("r3", Vector(x, C("b1"), C("c2"))))
    ))
  }

  test("induced violations are repaired recursively (CFD chain)") {
    // φ3: a→b, φ4: b→c over r3 (paper Sec. 4.1 example).
    val cfds = Vector(CFD.fd("r3", Vector("a"), "b"), CFD.fd("r3", Vector("b"), "c"))
    val l1   = Literal("r3", Vector(x, C("b1"), C("c1")))
    val l2   = Literal("r3", Vector(x, C("b2"), C("c2")))
    val cl   = Clause(head, Vector(l1, l2))
    val reps = repairs(cl, cfds)
    assert(reps.nonEmpty)
    // every produced repair must be violation-free w.r.t. BOTH CFDs
    for (r <- reps)
      assert(Expand.detectGroups(r.body, cfds, schema).isEmpty, s"unrepaired: ${r.render}")
  }

  test("maxOut caps the number of expansions") {
    val lits = Vector("R", "PG", "G", "PG13").map(v => Literal("rating", Vector(x, C(v))))
    val cl   = Clause(head, lits)
    val reps = Expand.repairs(cl, fdRating, schema, maxOut = 3, maxDepth = params.maxExpandDepth)
    assert(reps.size <= 3)
    assert(reps.nonEmpty)
  }

  test("expansions carry no groups") {
    val cl = Clause(head, Vector(lR, lPG))
    assert(repairs(cl, fdRating).forall(r => Expand.detectGroups(r.body, fdRating, schema).isEmpty))
  }

  test("variable-headed clauses get head-connectivity pruning after drops") {
    val y    = Var("y")
    val join = Literal("r3", Vector(x, y, C("c")))
    val dep  = Literal("rating", Vector(y, C("R")))
    val dep2 = Literal("rating", Vector(y, C("PG")))
    val cl   = Clause(head, Vector(join, dep, dep2))
    val reps = repairs(cl, fdRating)
    // all repairs keep the head-connected join literal
    assert(reps.forall(_.body.contains(join)))
  }

  test("unrelated groups multiply combinatorially up to the cap") {
    val y   = Var("y")
    val a1  = Literal("rating", Vector(x, C("R")))
    val a2  = Literal("rating", Vector(x, C("PG")))
    val b1  = Literal("rating", Vector(y, C("G")))
    val b2  = Literal("rating", Vector(y, C("PG13")))
    val all = Vector(a1, a2, b1, b2)
    val cl  = Clause(Literal("t", Vector(x, y)), all)
    val reps = repairs(cl, fdRating)
    // 2 choices for x-group × 2 for y-group (plus drop variants) — at least 4 distinct
    assert(reps.map(_.body.toSet).distinct.size >= 4)
  }

  // ---- detection on a sub-body

  /** FDs, a constant-RHS CFD and a CFD with constants on both sides. */
  private val propCfds = Vector(
    CFD.fd("rating", Vector("id"), "rating"),
    CFD("rating", Vector("id"), "rating", Vector(None), Some("R")),
    CFD.fd("r3", Vector("a"), "b"),
    CFD("r3", Vector("b"), "c", Vector(Some("b1")), Some("c1")),
  )
  private val propTerm: Gen[Term] =
    Gen.oneOf[Term](x, Var("y"), C("R"), C("PG"), C("b1"), C("b2"), C("c1"), C("c2"))
  /** Literals from small domains, so that bodies repeat literals. */
  private val propLit: Gen[Literal] = Gen.frequency(
    3 -> Gen.listOfN(2, propTerm).map(as => Literal("rating", as.toVector)),
    3 -> Gen.listOfN(3, propTerm).map(as => Literal("r3", as.toVector)),
    1 -> Gen.listOfN(2, propTerm).map(as => Literal.sim(as(0), as(1))),
  )
  private val bodyAndMask: Gen[(Vector[Literal], Vector[Boolean])] = for {
    n    <- Gen.choose(0, 8)
    body <- Gen.listOfN(n, propLit)
    keep <- Gen.listOfN(n, Gen.oneOf(true, false))
  } yield (body.toVector, keep.toVector)

  test("detectGroups on a sub-body is the full body's groups among the literals that remain") {
    Props.check(Prop.forAll(bodyAndMask) { case (body, keep) =>
      val sub = body.zip(keep).collect { case (l, true) => l }
      // Every violation is a verdict on one pair of literals (or one literal),
      // so a pair of the sub-body is a group iff the full body reported it.
      val reported = Expand.detectGroups(body, propCfds, schema).map(g => (g.cfdId, Set(g.l1, g.l2))).toSet
      val expected = for {
        (cfd, id) <- propCfds.zipWithIndex
        lits = sub.filter(_.pred == cfd.rel)
        i <- lits.indices
        j <- i until lits.length
        if (i == j) == (lits(i) == lits(j)) && reported((id, Set(lits(i), lits(j))))
      } yield CfdGroup(id, lits(i), lits(j))
      Expand.detectGroups(sub, propCfds, schema) == expected
    }, minTests = 5000)
  }
}
