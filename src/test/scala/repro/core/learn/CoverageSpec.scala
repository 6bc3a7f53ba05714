package repro.core.learn

import org.scalatest.funsuite.AnyFunSuite
import repro.core.constraints.CFD
import repro.core.db.{Example, RelSpec, Schema}
import repro.core.logic._

/** Coverage semantics over dirty ground clauses (Defs. 3.4 / 3.6). */
class CoverageSpec extends AnyFunSuite {
  private val x = Var("x")
  private def C(v: String): Const = Const(v)

  private val schema = Schema(Vector(RelSpec("rating", Vector("id", "rating"), Set("rating"))))
  private val cfds   = Vector(CFD.fd("rating", Vector("id"), "rating"))
  private val cov    = new Coverage(cfds, schema, LearnParams())

  /** Clause: t(x) :- rating(x, R). */
  private val cR = Clause(Literal("t", Vector(x)), Vector(Literal("rating", Vector(x, C("R")))))

  private def groundEx(key: String, ratings: String*): GroundEx = {
    val lits = ratings.map(r => Literal("rating", Vector(C(key), C(r)))).toVector
    cov.groundFrom(Example("t", Vector(key), positive = true), Clause(Literal("t", Vector(C(key))), lits))
  }

  test("clean ground clause: positive and negative semantics agree") {
    val g = groundEx("e", "R")
    val e = cov.expand(cR)
    assert(cov.coversPos(e, g))
    assert(cov.coversNeg(e, g))
  }

  test("clean ground clause without the value is not covered") {
    val g = groundEx("e", "PG")
    val e = cov.expand(cR)
    assert(!cov.coversPos(e, g))
    assert(!cov.coversNeg(e, g))
  }

  test("dirty positive stays covered: some repair keeps R (Def 3.4)") {
    val g = groundEx("e", "R", "PG")
    assert(g.expansions.size >= 2, "conflicting ratings must yield multiple repairs")
    assert(cov.coversPos(cov.expand(cR), g))
  }

  test("dirty negative with spurious R is covered (Def 3.6)") {
    // true rating PG, injected spurious R: ∃ repair keeping R → covered.
    val g = groundEx("e", "PG", "R")
    assert(cov.coversNeg(cov.expand(cR), g))
  }

  test("a contradictory candidate clause covers no clean positive (∀ side of Def 3.4)") {
    val both = Vector(
      Literal("rating", Vector(x, C("R"))),
      Literal("rating", Vector(x, C("PG"))),
    )
    val cBoth = Clause(Literal("t", Vector(x)), both)
    val exp   = cov.expand(cBoth)
    assert(exp.size >= 2)
    // Clean positive rated R: the PG-repair of the clause cannot subsume it.
    assert(!cov.coversPos(exp, groundEx("e", "R")))
    // But as a negative test (∃ semantics) it is covered.
    assert(cov.coversNeg(exp, groundEx("e", "R")))
  }

  test("contradictory clause covers a positive whose ground clause has both repairs") {
    val both = Vector(
      Literal("rating", Vector(x, C("R"))),
      Literal("rating", Vector(x, C("PG"))),
    )
    val cBoth = Clause(Literal("t", Vector(x)), both)
    // Ground clause also dirty with both values: each clause-repair finds its
    // ground-repair (R→R, PG→PG).
    assert(cov.coversPos(cov.expand(cBoth), groundEx("e", "R", "PG")))
  }

  test("expand caches nothing but is deterministic") {
    assert(cov.expand(cR) == cov.expand(cR))
  }

  test("counts tallies positive and negative coverage in parallel") {
    val pos = Vector(groundEx("p1", "R"), groundEx("p2", "R", "PG"), groundEx("p3", "G"))
    val neg = Vector(groundEx("n1", "PG"), groundEx("n2", "PG", "R"))
    val rec = new CoverageRecord(cov, cR, pos, neg)
    // p1 clean, p2 dirty-covered, p3 not; n2 via spurious R. The second
    // count reads the decisions the first one made.
    assert(rec.counts(pos.indices, neg.indices) == ((2, 1)))
    assert(rec.counts(pos.indices, neg.indices) == ((2, 1)))
    assert(rec.counts(Vector(2, 0), Vector(1)) == ((1, 1)))
    assert(rec.uncoveredPos(pos.indices.toVector) == Vector(2))
  }

  test("the record decides an example separately as a positive and as a negative") {
    val both = Vector(
      Literal("rating", Vector(x, C("R"))),
      Literal("rating", Vector(x, C("PG"))),
    )
    val cBoth = Clause(Literal("t", Vector(x)), both)
    val g     = Vector(groundEx("e", "R"))
    // Covered under ∃∃ (Def. 3.6) but not under ∀∃ (Def. 3.4), whichever
    // sense is decided first.
    val negFirst = new CoverageRecord(cov, cBoth, g, g)
    assert(negFirst.counts(Vector.empty, Vector(0)) == ((0, 1)))
    assert(negFirst.counts(Vector(0), Vector(0)) == ((0, 1)))
    val posFirst = new CoverageRecord(cov, cBoth, g, g)
    assert(posFirst.uncoveredPos(Vector(0)) == Vector(0))
    assert(posFirst.counts(Vector(0), Vector(0)) == ((0, 1)))
  }

  test("countsAll over several records equals counting one record at a time, testing each once") {
    val tests = new java.util.concurrent.ConcurrentLinkedQueue[(Vector[Clause], Vector[String], Boolean)]
    val counting = new Coverage(cfds, schema, LearnParams()) {
      override def coversPos(cExp: Vector[Clause], g: GroundEx): Boolean = {
        tests.add((cExp, g.ex.args, true)); super.coversPos(cExp, g)
      }
      override def coversNeg(cExp: Vector[Clause], g: GroundEx): Boolean = {
        tests.add((cExp, g.ex.args, false)); super.coversNeg(cExp, g)
      }
    }
    val head = Literal("t", Vector(x))
    val clauses = Vector(
      cR,
      Clause(head, Vector(Literal("rating", Vector(x, C("PG"))))),
      Clause(head, Vector(Literal("rating", Vector(x, C("R"))), Literal("rating", Vector(x, C("PG"))))),
      Clause(head, Vector(Literal("rating", Vector(x, Var("y"))))),
    )
    val pos = Vector(groundEx("p1", "R"), groundEx("p2", "R", "PG"), groundEx("p3", "G"), groundEx("p4", "PG"))
    val neg = Vector(groundEx("n1", "PG"), groundEx("n2", "PG", "R"), groundEx("n3", "G"))
    val batched = clauses.map(new CoverageRecord(counting, _, pos, neg))
    val single  = clauses.map(new CoverageRecord(cov, _, pos, neg))
    // Overlapping example sets, and a record listed twice.
    for ((ps, ns) <- Seq((Vector(0, 2), Vector(1)), (pos.indices, neg.indices), (Vector(3, 1), Vector(2, 0)))) {
      val listed = batched :+ batched(0)
      assert(CoverageRecord.countsAll(listed, ps, ns) == (single :+ single(0)).map(_.counts(ps, ns)))
    }
    assert(batched.map(_.uncoveredPos(pos.indices.toVector)) == single.map(_.uncoveredPos(pos.indices.toVector)))
    val seen = tests.toArray.toVector
    assert(seen.distinct.length == seen.length, "a (clause, example, sense) test ran twice")
    assert(seen.length == clauses.length * (pos.length + neg.length))
  }

  test("Par.map preserves order and arity") {
    val xs = (1 to 100).toVector
    assert(Par.map(xs)(_ * 2) == xs.map(_ * 2))
    assert(Par.count(xs)(_ % 2 == 0) == 50)
  }

  test("Par.map on empty and singleton inputs") {
    assert(Par.map(Vector.empty[Int])(_ * 2).isEmpty)
    assert(Par.map(Vector(3))(_ * 2) == Vector(6))
  }
}
