package repro.core.learn

import org.scalatest.funsuite.AnyFunSuite
import repro.core.constraints.CFD
import repro.core.db.{RelSpec, Schema}
import repro.core.logic._

class GeneralizeSpec extends AnyFunSuite {
  private val x = Var("x"); private val y = Var("y"); private val z = Var("z")
  private def C(v: String): Const = Const(v)
  /** s(k, v) under the FD k → v, for the CFD-violation tests. */
  private val schema = Schema(Vector(RelSpec("s", Vector("k", "v"), Set("v"))))
  private val sFd    = Vector(CFD.fd("s", Vector("k"), "v"))
  private def gi(head: Literal, body: Literal*): GIndex =
    new GIndex(Clause(head, body.toVector))

  // Paper Example 4.7: generalizing the Superbad bottom clause to cover
  // Zoolander drops the mov2releasedate literal.
  test("blocking literal is dropped (paper Example 4.7)") {
    val c = Clause(
      Literal("hg", Vector(x)),
      Vector(
        Literal("movies", Vector(y, x, z)),
        Literal("mov2genres", Vector(y, C("comedy"))),
        Literal("mov2releasedate", Vector(y, C("August"))),
      ),
    )
    val g = gi(
      Literal("hg", Vector(C("Zoolander"))),
      Literal("movies", Vector(C("m2"), C("Zoolander"), C("2001"))),
      Literal("mov2genres", Vector(C("m2"), C("comedy"))),
      Literal("mov2releasedate", Vector(C("m2"), C("September"))),
    )
    val r = Generalize.armg(c, g)
    assert(r.body.map(_.pred) == Vector("movies", "mov2genres"))
  }

  test("the generalization still subsumes the target example") {
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), Literal("s", Vector(y, C("a"))), Literal("q", Vector(y))),
    )
    val g = gi(
      Literal("t", Vector(C("e"))),
      Literal("r", Vector(C("e"), C("k"))),
      Literal("q", Vector(C("k"))),
    )
    val r = Generalize.armg(c, g)
    assert(Subsume.subsumes(r, g))
    assert(r.body.map(_.pred) == Vector("r", "q"))
  }

  test("armg result θ-subsumes the input (generalization is sound)") {
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), Literal("s", Vector(y, C("a")))),
    )
    val g = gi(Literal("t", Vector(C("e"))), Literal("r", Vector(C("e"), C("k"))))
    val r = Generalize.armg(c, g)
    // The input clause, ground over its own canonical instance, is subsumed
    // by the generalization.
    val canonical = gi(
      Literal("t", Vector(C("x"))),
      Literal("r", Vector(C("x"), C("y"))),
      Literal("s", Vector(C("y"), C("a"))),
    )
    assert(Subsume.subsumes(r, canonical))
  }

  test("head-connectivity is restored after dropping a bridge literal") {
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(
        Literal("r", Vector(x, y)),   // bridge to y
        Literal("s", Vector(y, z)),   // bridge to z
        Literal("q", Vector(z)),
      ),
    )
    // target has r but no s: s is blocking; q must fall away with it
    val g = gi(
      Literal("t", Vector(C("e"))),
      Literal("r", Vector(C("e"), C("k"))),
      Literal("q", Vector(C("w"))),
    )
    val r = Generalize.armg(c, g)
    assert(r.body.map(_.pred) == Vector("r"))
  }

  test("sim literal is dropped when the target lacks the fact") {
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), Literal.sim(y, z), Literal("s", Vector(z, C("tag")))),
    )
    val g = gi(
      Literal("t", Vector(C("e"))),
      Literal("r", Vector(C("e"), C("k"))),
      Literal("s", Vector(C("w"), C("tag"))),
    )
    val r = Generalize.armg(c, g)
    // sim(y,z) can reflexively bind z:=k, then s(k,"tag") fails → s dropped,
    // then the dangling sim literal is pruned.
    assert(r.body.map(_.pred) == Vector("r"))
  }

  test("sim literal survives when the target has the fact") {
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), Literal.sim(y, z), Literal("s", Vector(z, C("tag")))),
    )
    val g = gi(
      Literal("t", Vector(C("e"))),
      Literal("r", Vector(C("e"), C("k"))),
      Literal.sim(C("k"), C("w")),
      Literal("s", Vector(C("w"), C("tag"))),
    )
    val r = Generalize.armg(c, g)
    assert(r.body.size == 3)
    assert(Subsume.subsumes(r, g))
  }

  test("incompatible head leaves the clause unchanged") {
    val c = Clause(Literal("t", Vector(C("a"))), Vector(Literal("r", Vector(C("a")))))
    val g = gi(Literal("t", Vector(C("b"))), Literal("r", Vector(C("b"))))
    assert(Generalize.armg(c, g) == c)
  }

  test("groups referencing dropped literals are pruned") {
    val l1 = Literal("s", Vector(y, C("v1")))
    val l2 = Literal("s", Vector(y, C("v2")))
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), l1, l2),
    )
    assert(Expand.detectGroups(c.body, sFd, schema) == Vector(CfdGroup(0, l1, l2)))
    val g = gi(
      Literal("t", Vector(C("e"))),
      Literal("r", Vector(C("e"), C("k"))),
      Literal("s", Vector(C("k"), C("v1"))),
    )
    val r = Generalize.armg(c, g)
    assert(r.body.contains(l1) && !r.body.contains(l2))
    assert(Expand.detectGroups(r.body, sFd, schema).isEmpty, "group must vanish with its dropped literal")
  }

  test("groups on surviving literals are retained") {
    val l1 = Literal("s", Vector(y, C("v1")))
    val l2 = Literal("s", Vector(y, C("v2")))
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), l1, l2),
    )
    val g = gi(
      Literal("t", Vector(C("e"))),
      Literal("r", Vector(C("e"), C("k"))),
      Literal("s", Vector(C("k"), C("v1"))),
      Literal("s", Vector(C("k"), C("v2"))),
    )
    val r = Generalize.armg(c, g)
    assert(Expand.detectGroups(r.body, sFd, schema) == Vector(CfdGroup(0, l1, l2)))
  }

  test("armg over the clause's own ground image is the identity on the body") {
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), Literal("s", Vector(y, C("a")))),
    )
    val g = gi(
      Literal("t", Vector(C("e"))),
      Literal("r", Vector(C("e"), C("k"))),
      Literal("s", Vector(C("k"), C("a"))),
    )
    assert(Generalize.armg(c, g).body == c.body)
  }

  test("maxFrontier caps do not break soundness") {
    val lits = (1 to 6).map(i => Literal("r", Vector(x, Var(s"y$i")))).toVector
    val c    = Clause(Literal("t", Vector(x)), lits)
    val gB   = (1 to 6).map(i => Literal("r", Vector(C("e"), C(s"k$i")))).toVector
    val g    = new GIndex(Clause(Literal("t", Vector(C("e"))), gB))
    val r    = Generalize.armg(c, g, maxFrontier = 2)
    assert(Subsume.subsumes(r, g))
  }
}
