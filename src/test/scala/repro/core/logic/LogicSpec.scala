package repro.core.logic

import org.scalatest.funsuite.AnyFunSuite

class LogicSpec extends AnyFunSuite {
  private val x = Var("x"); private val y = Var("y"); private val z = Var("z")
  private val a = Const("a"); private val b = Const("b")

  test("Var and Const render distinctly") {
    assert(x.render == "x")
    assert(a.render == "\"a\"")
  }

  test("literal vars collects only variables") {
    assert(Literal("r", Vector(x, a, y)).vars == Set(x, y))
  }

  test("literal vars is empty for ground literal") {
    assert(Literal("r", Vector(a, b)).vars.isEmpty)
  }

  test("subst replaces mapped variables and keeps constants") {
    val l = Literal("r", Vector(x, a, y))
    assert(l.subst(Map(x -> b)) == Literal("r", Vector(b, a, y)))
  }

  test("subst leaves unmapped variables") {
    val l = Literal("r", Vector(x, y))
    assert(l.subst(Map(x -> a)) == Literal("r", Vector(a, y)))
  }

  test("replaceTerm replaces all occurrences of a term") {
    val l = Literal("r", Vector(x, x, y))
    assert(l.replaceTerm(x, z) == Literal("r", Vector(z, z, y)))
  }

  test("sim constructor sets the similarity predicate") {
    assert(Literal.sim(x, y).isSim)
    assert(!Literal.sim(x, y).isRel)
    assert(Literal("r", Vector(x)).isRel)
  }

  test("clause vars unions head and body") {
    val c = Clause(Literal("t", Vector(x)), Vector(Literal("r", Vector(x, y))), Vector.empty)
    assert(c.vars == Set(x, y))
  }

  test("headConnected true when head vars appear in body") {
    val c = Clause(Literal("t", Vector(x)), Vector(Literal("r", Vector(x, y))), Vector.empty)
    assert(c.headConnected)
  }

  test("headConnected false when a head var is unbound") {
    val c = Clause(Literal("t", Vector(x, z)), Vector(Literal("r", Vector(x, y))), Vector.empty)
    assert(!c.headConnected)
  }

  test("headConnectedBody drops disconnected literals") {
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), Literal("s", Vector(z))),
      Vector.empty,
    )
    assert(c.headConnectedBody.body == Vector(Literal("r", Vector(x, y))))
  }

  test("headConnectedBody keeps transitively connected literals") {
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), Literal("s", Vector(y, z)), Literal("q", Vector(z))),
      Vector.empty,
    )
    assert(c.headConnectedBody.body.size == 3)
  }

  test("headConnectedBody preserves body order") {
    val l1 = Literal("r", Vector(x, y)); val l2 = Literal("s", Vector(y))
    val c  = Clause(Literal("t", Vector(x)), Vector(l1, l2), Vector.empty)
    assert(c.headConnectedBody.body == Vector(l1, l2))
  }

  test("sim literal connects components in headConnectedBody") {
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), Literal.sim(y, z), Literal("s", Vector(z))),
      Vector.empty,
    )
    assert(c.headConnectedBody.body.size == 3)
  }

  test("dropDanglingBuiltins removes sim literal with vanished variable") {
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x)), Literal.sim(y, z)),
      Vector.empty,
    )
    assert(c.dropDanglingBuiltins.body == Vector(Literal("r", Vector(x))))
  }

  test("dropDanglingBuiltins keeps sim literal whose vars live in relation literals") {
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), Literal("s", Vector(z)), Literal.sim(y, z)),
      Vector.empty,
    )
    assert(c.dropDanglingBuiltins.body.size == 3)
  }

  test("normalized reaches a fixpoint removing chained danglers") {
    // s(z) connected only via sim(y,z); r(x,y) keeps y. Removing nothing is stable.
    val stable = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), Literal.sim(y, z), Literal("s", Vector(z))),
      Vector.empty,
    )
    assert(stable.normalized == stable)
    // Disconnected pair q(w)+sim(w,u) must vanish entirely.
    val w = Var("w"); val u = Var("u")
    val dirty = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), Literal("q", Vector(w)), Literal.sim(u, w)),
      Vector.empty,
    )
    assert(dirty.normalized.body == Vector(Literal("r", Vector(x, y))))
  }

  test("liveGroups keeps only groups whose literals remain") {
    val l1 = Literal("r", Vector(x, a)); val l2 = Literal("r", Vector(x, b))
    val g  = CfdGroup(0, l1, l2)
    val c  = Clause(Literal("t", Vector(x)), Vector(l1, l2), Vector(g))
    assert(c.liveGroups == Vector(g))
    assert(c.withBody(Vector(l1)).groups.isEmpty)
  }

  test("withBody prunes dead groups") {
    val l1 = Literal("r", Vector(x, a)); val l2 = Literal("r", Vector(x, b))
    val c  = Clause(Literal("t", Vector(x)), Vector(l1, l2), Vector(CfdGroup(0, l1, l2)))
    assert(c.withBody(Vector(l2)).groups.isEmpty)
    assert(c.withBody(Vector(l1, l2)).groups.size == 1)
  }

  test("self-group (constant-RHS single literal violation) stays live") {
    val l = Literal("r", Vector(x, a))
    val c = Clause(Literal("t", Vector(x)), Vector(l), Vector(CfdGroup(0, l, l)))
    assert(c.liveGroups.size == 1)
  }

  test("render shows head, body and group count") {
    val l1 = Literal("r", Vector(x, a)); val l2 = Literal("r", Vector(x, b))
    val c  = Clause(Literal("t", Vector(x)), Vector(l1, l2), Vector(CfdGroup(0, l1, l2)))
    assert(c.render.contains(":-"))
    assert(c.render.contains("1 cfd group"))
  }

  test("definition renders one clause per line") {
    val c = Clause(Literal("t", Vector(x)), Vector(Literal("r", Vector(x))), Vector.empty)
    val d = Definition(Vector(c, c))
    assert(d.render.split("\n").length == 2)
    assert(!d.isEmpty)
    assert(Definition(Vector.empty).isEmpty)
  }

  test("ground literal is kept by headConnectedBody") {
    val g = Literal("r", Vector(a, b))
    val c = Clause(Literal("t", Vector(x)), Vector(Literal("s", Vector(x)), g), Vector.empty)
    assert(c.headConnectedBody.body.contains(g))
  }
}
