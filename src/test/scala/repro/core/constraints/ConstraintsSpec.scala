package repro.core.constraints

import org.scalatest.funsuite.AnyFunSuite
import repro.core.db.{AttrRef, RelSpec}
import repro.core.logic.{Const, Literal, Var}

class ConstraintsSpec extends AnyFunSuite {
  private val loc = RelSpec("mov2locale", Vector("title", "language", "country"), Set("language", "country"))
  // The paper's φ1: (title, language → country, (-, English || -)).
  private val phi1 = CFD("mov2locale", Vector("title", "language"), "country",
    Vector(None, Some("English")), None)

  test("MD requires at least one pair") {
    intercept[IllegalArgumentException](MD(Vector.empty))
  }

  test("single-pair MD convenience constructor") {
    val md = MD(AttrRef("a", "x"), AttrRef("b", "y"))
    assert(md.pairs == Vector((AttrRef("a", "x"), AttrRef("b", "y"))))
  }

  test("fd factory builds an all-wildcard pattern") {
    val fd = CFD.fd("r", Vector("a"), "b")
    assert(fd.lhsPattern == Vector(None))
    assert(fd.rhsPattern.isEmpty)
  }

  test("lhsIdx and rhsIdx resolve attribute positions") {
    assert(phi1.lhsIdx(loc) == Vector(0, 1))
    assert(phi1.rhsIdx(loc) == 2)
  }

  test("lhsIdx on unknown attribute throws") {
    val bad = CFD.fd("mov2locale", Vector("nope"), "country")
    intercept[IllegalArgumentException](bad.lhsIdx(loc))
  }

  /** The ground literal of a `mov2locale` tuple; a null becomes a fresh
    * variable, as in `BottomBuilder`.
    */
  private var fresh = 0
  private def ground(t: String*): Literal =
    Literal("mov2locale", t.toVector.map { v =>
      if (v != null) Const(v) else { fresh += 1; Var(s"null$fresh") }
    })

  test("violates: the paper's Bait example violates φ1") {
    val r1 = ground("Bait", "English", "USA")
    val r2 = ground("Bait", "English", "Ireland")
    assert(phi1.violatesLits(loc, r1, r2))
  }

  test("violates: different language pattern does not trigger φ1") {
    val r1 = ground("Bait", "French", "USA")
    val r2 = ground("Bait", "French", "Ireland")
    assert(!phi1.violatesLits(loc, r1, r2))
  }

  test("violates: same country satisfies φ1") {
    val r1 = ground("Bait", "English", "USA")
    val r2 = ground("Bait", "English", "USA")
    assert(!phi1.violatesLits(loc, r1, r2))
  }

  test("violates: different titles never violate") {
    val r1 = ground("Bait", "English", "USA")
    val r2 = ground("Hook", "English", "Ireland")
    assert(!phi1.violatesLits(loc, r1, r2))
  }

  test("violates: null LHS never violates") {
    val r1 = ground(null, "English", "USA")
    val r2 = ground(null, "English", "Ireland")
    assert(!phi1.violatesLits(loc, r1, r2))
  }

  test("violates with constant RHS pattern") {
    val c  = CFD("mov2locale", Vector("title"), "country", Vector(None), Some("USA"))
    // equal but not matching the RHS constant → violation; the two tuples
    // differ outside the CFD, because one literal is never compared with itself
    assert(c.violatesLits(loc, ground("Bait", "English", "UK"), ground("Bait", "French", "UK")))
    assert(!c.violatesLits(loc, ground("Bait", "e", "USA"), ground("Bait", "f", "USA")))
  }

  test("violatesLits: equal LHS vars with different RHS constants violate") {
    val x  = Var("x")
    val fd = CFD.fd("mov2locale", Vector("title", "language"), "country")
    val l1 = Literal("mov2locale", Vector(x, Const("English"), Const("USA")))
    val l2 = Literal("mov2locale", Vector(x, Const("English"), Const("Ireland")))
    assert(fd.violatesLits(loc, l1, l2))
  }

  test("violatesLits: identical literals do not violate a wildcard CFD") {
    val x  = Var("x")
    val fd = CFD.fd("mov2locale", Vector("title"), "country")
    val l1 = Literal("mov2locale", Vector(x, Const("English"), Const("USA")))
    assert(!fd.violatesLits(loc, l1, l1))
  }

  test("violatesLits: different LHS vars do not violate") {
    val fd = CFD.fd("mov2locale", Vector("title"), "country")
    val l1 = Literal("mov2locale", Vector(Var("x"), Const("e"), Const("USA")))
    val l2 = Literal("mov2locale", Vector(Var("y"), Const("e"), Const("Ireland")))
    assert(!fd.violatesLits(loc, l1, l2))
  }

  test("violatesLits: variable cannot match a constant pattern (conservative)") {
    val l1 = Literal("mov2locale", Vector(Var("x"), Var("l"), Const("USA")))
    val l2 = Literal("mov2locale", Vector(Var("x"), Var("l"), Const("Ireland")))
    assert(!phi1.violatesLits(loc, l1, l2)) // language var vs 'English' pattern
  }

  test("violatesLits: RHS as distinct variables counts as a violation") {
    val fd = CFD.fd("mov2locale", Vector("title"), "country")
    val l1 = Literal("mov2locale", Vector(Var("x"), Const("e"), Var("c1")))
    val l2 = Literal("mov2locale", Vector(Var("x"), Const("e"), Var("c2")))
    assert(fd.violatesLits(loc, l1, l2))
  }

  test("violatesLits: wrong relation name never violates") {
    val fd = CFD.fd("other", Vector("title"), "country")
    val l1 = Literal("mov2locale", Vector(Var("x"), Const("e"), Const("USA")))
    val l2 = Literal("mov2locale", Vector(Var("x"), Const("e"), Const("Ireland")))
    assert(!fd.violatesLits(loc, l1, l2))
  }

  test("pattern arity mismatch is rejected") {
    intercept[IllegalArgumentException](CFD("r", Vector("a", "b"), "c", Vector(None), None))
  }
}
