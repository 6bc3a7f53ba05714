package repro.core.logic

import org.scalatest.funsuite.AnyFunSuite

class LogicSpec extends AnyFunSuite {
  private val x = Var("x"); private val y = Var("y"); private val z = Var("z")
  private val a = Const("a"); private val b = Const("b")

  /** One reference pruning pass on `c`; on these clauses `normalized`
    * reaches the same body.
    */
  private def pass(c: Clause, prune: Clause => Clause): Clause = {
    val r = prune(c)
    assert(c.normalized == r)
    r
  }
  private def headConnectedBody(c: Clause)    = pass(c, ReferenceNormalize.headConnectedBody)
  private def dropDanglingBuiltins(c: Clause) = pass(c, ReferenceNormalize.dropDanglingBuiltins)

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

  test("sim constructor sets the similarity predicate") {
    assert(Literal.sim(x, y).isSim)
    assert(!Literal.sim(x, y).isRel)
    assert(Literal("r", Vector(x)).isRel)
  }

  test("headConnected true when head vars appear in body") {
    val c = Clause(Literal("t", Vector(x)), Vector(Literal("r", Vector(x, y))))
    assert(c.headConnected)
  }

  test("headConnected false when a head var is unbound") {
    val c = Clause(Literal("t", Vector(x, z)), Vector(Literal("r", Vector(x, y))))
    assert(!c.headConnected)
  }

  test("headConnectedBody drops disconnected literals") {
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), Literal("s", Vector(z))),
    )
    assert(headConnectedBody(c).body == Vector(Literal("r", Vector(x, y))))
  }

  test("headConnectedBody keeps transitively connected literals") {
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), Literal("s", Vector(y, z)), Literal("q", Vector(z))),
    )
    assert(headConnectedBody(c).body.size == 3)
  }

  test("headConnectedBody preserves body order") {
    val l1 = Literal("r", Vector(x, y)); val l2 = Literal("s", Vector(y))
    val c  = Clause(Literal("t", Vector(x)), Vector(l1, l2))
    assert(headConnectedBody(c).body == Vector(l1, l2))
  }

  test("sim literal connects components in headConnectedBody") {
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), Literal.sim(y, z), Literal("s", Vector(z))),
    )
    assert(headConnectedBody(c).body.size == 3)
  }

  test("dropDanglingBuiltins removes sim literal with vanished variable") {
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x)), Literal.sim(y, z)),
    )
    assert(dropDanglingBuiltins(c).body == Vector(Literal("r", Vector(x))))
  }

  test("dropDanglingBuiltins keeps sim literal whose vars live in relation literals") {
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), Literal("s", Vector(z)), Literal.sim(y, z)),
    )
    assert(dropDanglingBuiltins(c).body.size == 3)
  }

  test("normalized reaches a fixpoint removing chained danglers") {
    // s(z) connected only via sim(y,z); r(x,y) keeps y. Removing nothing is stable.
    val stable = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), Literal.sim(y, z), Literal("s", Vector(z))),
    )
    assert(stable.normalized == stable)
    // Disconnected pair q(w)+sim(w,u) must vanish entirely.
    val w = Var("w"); val u = Var("u")
    val dirty = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r", Vector(x, y)), Literal("q", Vector(w)), Literal.sim(u, w)),
    )
    assert(dirty.normalized.body == Vector(Literal("r", Vector(x, y))))
  }

  test("render shows head and body") {
    val l1 = Literal("r", Vector(x, a)); val l2 = Literal("r", Vector(x, b))
    val c  = Clause(Literal("t", Vector(x)), Vector(l1, l2))
    assert(c.render == "t(x) :- r(x, \"a\"), r(x, \"b\")")
  }

  test("definition renders one clause per line") {
    val c = Clause(Literal("t", Vector(x)), Vector(Literal("r", Vector(x))))
    val d = Definition(Vector(c, c))
    assert(d.render.split("\n").length == 2)
    assert(!d.isEmpty)
    assert(Definition(Vector.empty).isEmpty)
  }

  test("ground literal is kept by headConnectedBody") {
    val g = Literal("r", Vector(a, b))
    val c = Clause(Literal("t", Vector(x)), Vector(Literal("s", Vector(x)), g))
    assert(headConnectedBody(c).body.contains(g))
  }
}
