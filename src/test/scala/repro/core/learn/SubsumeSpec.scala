package repro.core.learn

import org.scalatest.funsuite.AnyFunSuite
import repro.core.logic._

class SubsumeSpec extends AnyFunSuite {

  /** The node cap these tests run the subsumption search with. */
  private def subsumes(c: Clause, g: GIndex): Boolean = Subsume.subsumes(c, g, nodeCap = 200000)

  private val x = Var("x"); private val y = Var("y"); private val z = Var("z")
  private def c(head: Literal, body: Literal*): Clause = Clause(head, body.toVector)
  private def gi(cl: Clause): GIndex                   = new GIndex(cl)
  private def C(v: String): Const                      = Const(v)

  // The unifyArgs tests check the unification of a literal's arguments with
  // a target literal's, through subsumes.
  test("unifyArgs binds variables consistently") {
    val c1 = c(Literal("t", Vector(y)), Literal("r", Vector(x, y, x)))
    assert(subsumes(c1, gi(c(Literal("t", Vector(C("b"))), Literal("r", Vector(C("a"), C("b"), C("a")))))))
    assert(!subsumes(c1, gi(c(Literal("t", Vector(C("a"))), Literal("r", Vector(C("a"), C("b"), C("a")))))))
  }

  test("unifyArgs rejects inconsistent bindings") {
    val c1 = c(Literal("t", Vector(C("h"))), Literal("r", Vector(x, x)))
    assert(!subsumes(c1, gi(c(Literal("t", Vector(C("h"))), Literal("r", Vector(C("a"), C("b")))))))
  }

  test("unifyArgs rejects constant mismatch") {
    val c1 = c(Literal("t", Vector(x)), Literal("r", Vector(x, C("a"))))
    assert(!subsumes(c1, gi(c(Literal("t", Vector(C("e"))), Literal("r", Vector(C("e"), C("b")))))))
  }

  test("unifyArgs rejects arity mismatch") {
    val g1 = gi(c(Literal("t", Vector(C("e"))), Literal("r", Vector(C("e"), C("b")))))
    assert(!subsumes(c(Literal("t", Vector(x)), Literal("r", Vector(x))), g1))
    assert(!subsumes(c(Literal("t", Vector(x, y)), Literal("r", Vector(x, y))), g1))
  }

  test("unifyArgs extends an existing substitution") {
    // x is bound by the head, then r(x, y) binds y and s(y) must agree.
    val c1 = c(Literal("t", Vector(x)), Literal("r", Vector(x, y)), Literal("s", Vector(y)))
    val g1 = c(
      Literal("t", Vector(C("a"))),
      Literal("r", Vector(C("z"), C("c"))),
      Literal("r", Vector(C("a"), C("b"))),
      Literal("s", Vector(C("b"))),
      Literal("s", Vector(C("c"))),
    )
    assert(subsumes(c1, gi(g1)))
    assert(!subsumes(c1, gi(g1.copy(body = g1.body.filterNot(_ == Literal("s", Vector(C("b"))))))))
  }

  // Paper Sec. 4.2: C1: hg(x) :- movies(x,y,z) θ-subsumes
  // C2: hg(a) :- movies(a,b,c), mov2genres(b,'comedy').
  test("paper example: shorter clause subsumes the longer one") {
    val c1 = c(Literal("hg", Vector(x)), Literal("movies", Vector(x, y, z)))
    val c2 = c(
      Literal("hg", Vector(C("a"))),
      Literal("movies", Vector(C("a"), C("b"), C("c"))),
      Literal("mov2genres", Vector(C("b"), C("comedy"))),
    )
    assert(subsumes(c1, gi(c2)))
    assert(!subsumes(c2, c1 match { case cl => gi(cl) }))
  }

  test("head predicate or constant mismatch fails") {
    val c1 = c(Literal("t", Vector(C("a"))), Literal("r", Vector(C("a"))))
    val g1 = c(Literal("t", Vector(C("b"))), Literal("r", Vector(C("b"))))
    assert(!subsumes(c1, gi(g1)))
  }

  test("head variables map to ground head constants") {
    val c1 = c(Literal("t", Vector(x)), Literal("r", Vector(x)))
    val g1 = c(Literal("t", Vector(C("a"))), Literal("r", Vector(C("a"))))
    assert(subsumes(c1, gi(g1)))
  }

  test("body literal with no counterpart fails") {
    val c1 = c(Literal("t", Vector(x)), Literal("r", Vector(x)), Literal("s", Vector(x)))
    val g1 = c(Literal("t", Vector(C("a"))), Literal("r", Vector(C("a"))))
    assert(!subsumes(c1, gi(g1)))
  }

  test("join across two body literals requires a shared constant") {
    val c1 = c(Literal("t", Vector(x)), Literal("r", Vector(x, y)), Literal("s", Vector(y)))
    val gOk = c(
      Literal("t", Vector(C("a"))),
      Literal("r", Vector(C("a"), C("b"))),
      Literal("s", Vector(C("b"))),
    )
    val gBad = c(
      Literal("t", Vector(C("a"))),
      Literal("r", Vector(C("a"), C("b"))),
      Literal("s", Vector(C("c"))),
    )
    assert(subsumes(c1, gi(gOk)))
    assert(!subsumes(c1, gi(gBad)))
  }

  test("two clause variables may map to the same constant (no inequality)") {
    val c1 = c(Literal("t", Vector(x)), Literal("r", Vector(x, y)), Literal("r", Vector(x, z)))
    val g1 = c(Literal("t", Vector(C("a"))), Literal("r", Vector(C("a"), C("b"))))
    assert(subsumes(c1, gi(g1)))
  }

  test("backtracking explores multiple candidates") {
    val c1 = c(Literal("t", Vector(x)), Literal("r", Vector(x, y)), Literal("s", Vector(y, C("hit"))))
    val g1 = c(
      Literal("t", Vector(C("a"))),
      Literal("r", Vector(C("a"), C("b1"))),
      Literal("r", Vector(C("a"), C("b2"))),
      Literal("s", Vector(C("b2"), C("hit"))),
    )
    assert(subsumes(c1, gi(g1)))
  }

  test("sim literal maps onto a ground sim fact") {
    val c1 = c(Literal("t", Vector(x)), Literal("r", Vector(x, y)), Literal.sim(y, z), Literal("s", Vector(z)))
    val g1 = c(
      Literal("t", Vector(C("a"))),
      Literal("r", Vector(C("a"), C("u"))),
      Literal.sim(C("u"), C("v")),
      Literal("s", Vector(C("v"))),
    )
    assert(subsumes(c1, gi(g1)))
  }

  test("sim literal matches in reverse orientation (symmetry)") {
    val c1 = c(Literal("t", Vector(x)), Literal("r", Vector(x, y)), Literal.sim(z, y), Literal("s", Vector(z)))
    val g1 = c(
      Literal("t", Vector(C("a"))),
      Literal("r", Vector(C("a"), C("u"))),
      Literal.sim(C("u"), C("v")),
      Literal("s", Vector(C("v"))),
    )
    assert(subsumes(c1, gi(g1)))
  }

  test("sim literal is reflexively satisfied when both sides are equal") {
    val c1 = c(Literal("t", Vector(x)), Literal("r", Vector(x, y)), Literal.sim(y, z), Literal("s", Vector(z)))
    val g1 = c(
      Literal("t", Vector(C("a"))),
      Literal("r", Vector(C("a"), C("u"))),
      Literal("s", Vector(C("u"))), // no sim fact: u ≈ u holds reflexively
    )
    assert(subsumes(c1, gi(g1)))
  }

  test("sim literal fails without a fact or equality") {
    val c1 = c(Literal("t", Vector(x)), Literal("r", Vector(x, y)), Literal.sim(y, z), Literal("s", Vector(z)))
    val g1 = c(
      Literal("t", Vector(C("a"))),
      Literal("r", Vector(C("a"), C("u"))),
      Literal("s", Vector(C("w"))),
    )
    assert(!subsumes(c1, gi(g1)))
  }

  // Found by the brute-force oracle in SubsumePropSpec: w ≈ y is selected
  // while both sides are unbound (2 fact orientations < 3 q literals), and
  // no fact leads to a solution; w = y = "a" does.
  test("sim literal between unbound variables may hold on one value that is in no fact") {
    val w = Var("w")
    val c1 = c(Literal("t", Vector(z)), Literal("p", Vector(x, z)), Literal.sim(w, y), Literal("q", Vector(y, y)))
    val g1 = c(
      Literal("t", Vector(C("b"))),
      Literal("p", Vector(C("b"), C("e"))),
      Literal("q", Vector(C("b"), C("a"))),
      Literal("q", Vector(C("a"), C("a"))),
      Literal("p", Vector(C("e"), C("b"))),
      Literal("q", Vector(C("c"), C("d"))),
      Literal.sim(C("d"), C("c")),
    )
    assert(subsumes(c1, gi(g1)))
  }

  test("constants in body literals must match exactly") {
    val c1 = c(Literal("t", Vector(x)), Literal("g", Vector(x, C("Drama"))))
    val gOk  = c(Literal("t", Vector(C("a"))), Literal("g", Vector(C("a"), C("Drama"))))
    val gBad = c(Literal("t", Vector(C("a"))), Literal("g", Vector(C("a"), C("Comedy"))))
    assert(subsumes(c1, gi(gOk)))
    assert(!subsumes(c1, gi(gBad)))
  }

  test("empty body subsumes anything with a matching head") {
    val c1 = c(Literal("t", Vector(x)))
    val g1 = c(Literal("t", Vector(C("a"))), Literal("r", Vector(C("a"))))
    assert(subsumes(c1, gi(g1)))
  }

  test("nodeCap aborts pathological searches (returns false, never hangs)") {
    // 12 mutually-joined body literals over a ground clause with 6 candidates
    // each but no solution.
    val vars = Vector.tabulate(12)(i => Var(s"w$i"))
    val body = vars.sliding(2).map(p => Literal("e", Vector(p(0), p(1)))).toVector :+
      Literal("q", Vector(vars.last))
    val c1 = Clause(Literal("t", Vector(vars.head)), body)
    val gBody = (for { i <- 0 until 6; j <- 0 until 6 } yield
      Literal("e", Vector(C(s"n$i"), C(s"n$j")))).toVector
    val g1 = Clause(Literal("t", Vector(C("n0"))), gBody)
    assert(!Subsume.subsumes(c1, gi(g1), nodeCap = 500))
  }

  test("GIndex candidates narrow by position and term") {
    // r(x, y), s(y): the bound x narrows r to the one literal with "a" first;
    // a bound constant narrows s.
    val g1 = gi(c(
      Literal("t", Vector(C("a"))),
      Literal("r", Vector(C("b"), C("c"))),
      Literal("r", Vector(C("a"), C("d"))),
      Literal("s", Vector(C("d"), C("k"))),
      Literal("s", Vector(C("c"), C("l"))),
    ))
    assert(subsumes(c(Literal("t", Vector(x)), Literal("r", Vector(x, y)), Literal("s", Vector(y, C("k")))), g1))
    assert(!subsumes(c(Literal("t", Vector(x)), Literal("r", Vector(x, y)), Literal("s", Vector(y, C("l")))), g1))
    assert(!subsumes(c(Literal("t", Vector(x)), Literal("zzz", Vector(x))), g1))
  }

  test("GIndex stores sim facts in both orientations") {
    val g1 = gi(c(Literal("t", Vector(C("u"))), Literal.sim(C("u"), C("v")), Literal("s", Vector(C("v")))))
    val g2 = gi(c(Literal("t", Vector(C("u"))), Literal.sim(C("v"), C("u")), Literal("s", Vector(C("v")))))
    for (g <- Seq(g1, g2)) {
      assert(subsumes(c(Literal("t", Vector(x)), Literal.sim(x, y), Literal("s", Vector(y))), g))
      assert(subsumes(c(Literal("t", Vector(x)), Literal.sim(y, x), Literal("s", Vector(y))), g))
    }
  }

  // A null value of a ground clause is a Var; it is a term equal only to
  // itself, never a variable the search may bind.
  test("a null in the target is opaque to similarity literals") {
    val v1 = Var("v1"); val v2 = Var("v2"); val v3 = Var("v3")
    val c1 = c(Literal("t", Vector(v1)), Literal("r", Vector(v1, v2)), Literal.sim(v2, v3), Literal("s", Vector(v3)))
    val g1 = c(Literal("t", Vector(C("a"))), Literal("r", Vector(C("a"), Var("v9"))), Literal("s", Vector(C("b"))))
    assert(!subsumes(c1, gi(g1)))
    // The same null on both sides holds reflexively.
    val g2 = c(Literal("t", Vector(C("a"))), Literal("r", Vector(C("a"), Var("v9"))), Literal("s", Vector(Var("v9"))))
    assert(subsumes(c1, gi(g2)))
  }

  test("subsumption is reflexive on ground clauses") {
    val g1 = c(Literal("t", Vector(C("a"))), Literal("r", Vector(C("a"), C("b"))))
    assert(subsumes(g1, gi(g1)))
  }

  test("subsumption tolerates extra literals in the target") {
    val c1 = c(Literal("t", Vector(x)), Literal("r", Vector(x, y)))
    val g1 = c(
      Literal("t", Vector(C("a"))),
      Literal("r", Vector(C("a"), C("b"))),
      Literal("s", Vector(C("b"))),
      Literal("q", Vector(C("zzz"))),
    )
    assert(subsumes(c1, gi(g1)))
  }
}
