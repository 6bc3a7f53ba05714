package repro.core.learn

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.Props
import repro.core.logic._

/** Property-based checks of the θ-subsumption engine and ARMG, including a
  * brute-force oracle for soundness and completeness.
  */
class SubsumePropSpec extends AnyFunSuite {

  /** The node cap these tests run the subsumption search with. */
  private def subsumes(c: Clause, g: GIndex): Boolean = Subsume.subsumes(c, g, nodeCap = 200000)

  /** The frontier cap these tests run ARMG with. */
  private def armg(c: Clause, g: GIndex): Clause = Generalize.armg(c, g, maxFrontier = 256)

  private val constGen: Gen[Const] = Gen.oneOf("a", "b", "c", "d", "e").map(Const(_))
  private val predGen: Gen[String] = Gen.oneOf("p", "q", "r")

  private val groundClauseGen: Gen[Clause] = for {
    n     <- Gen.choose(1, 8)
    preds <- Gen.listOfN(n, predGen)
    argss <- Gen.listOfN(n, Gen.listOfN(2, constGen))
    headC <- constGen
  } yield Clause(
    Literal("t", Vector(headC)),
    preds.zip(argss).map { case (p, as) => Literal(p, as.toVector) }.toVector,
  )

  test("a clause always subsumes itself (ground reflexivity)") {
    Props.check(Prop.forAll(groundClauseGen) { g =>
      subsumes(g, new GIndex(g))
    })
  }

  test("dropping body literals preserves subsumption (generalization soundness)") {
    Props.check(Prop.forAll(groundClauseGen, Gen.choose(0, 7)) { (g, k) =>
      val dropped = Clause(g.head, g.body.patch(k % math.max(1, g.body.size), Nil, 1))
      subsumes(dropped, new GIndex(g))
    })
  }

  test("consistent variabilization of a ground clause subsumes the original") {
    Props.check(Prop.forAll(groundClauseGen) { g =>
      // Replace each distinct constant with a distinct variable everywhere.
      val consts = (g.head.args ++ g.body.flatMap(_.args)).collect { case c: Const => c }.distinct
      val theta: Map[Term, Term] = consts.zipWithIndex.map { case (c, i) => (c: Term) -> (Var(s"x$i"): Term) }.toMap
      def lift(l: Literal) = l.copy(args = l.args.map(a => theta.getOrElse(a, a)))
      val c = Clause(lift(g.head), g.body.map(lift))
      subsumes(c, new GIndex(g))
    })
  }

  test("subsumption implies subsumption after adding literals to the target") {
    Props.check(Prop.forAll(groundClauseGen, groundClauseGen) { (g, extra) =>
      val bigger = Clause(g.head, g.body ++ extra.body)
      !subsumes(g, new GIndex(g)) || subsumes(g, new GIndex(bigger))
    })
  }

  test("a fresh predicate in the candidate always blocks subsumption") {
    Props.check(Prop.forAll(groundClauseGen) { g =>
      val c = Clause(g.head, g.body :+ Literal("zzz", Vector(Const("a"))))
      !subsumes(c, new GIndex(g))
    })
  }

  test("ARMG toward a ground clause always yields a clause that subsumes it") {
    Props.check(Prop.forAll(groundClauseGen, groundClauseGen) { (c0, g) =>
      // variabilize c0's head constant so heads can unify
      val hv = Var("h")
      val c  = Clause(Literal("t", Vector(hv)),
        c0.body.map(l => l.copy(args = l.args.map(a => if (a == c0.head.args.head) hv else a))))
      val r = armg(c, new GIndex(g))
      subsumes(r, new GIndex(g))
    })
  }

  // ---- brute-force oracle over clauses with variables and similarity

  private val varGen: Gen[Var]     = Gen.oneOf("x", "y", "z", "w").map(Var(_))
  private val termGen: Gen[Term]   = Gen.frequency(3 -> varGen, 1 -> constGen)
  private val anyPredGen           = Gen.frequency(2 -> Gen.oneOf("p", "q"), 1 -> Gen.const(Literal.Sim))

  /** A clause over variables x, y, z, w and constants a–e; variables repeat
    * within and across literals, and a third of the literals are
    * similarity literals.
    */
  private val clauseGen: Gen[Clause] = for {
    head  <- termGen
    n     <- Gen.choose(0, 5)
    preds <- Gen.listOfN(n, anyPredGen)
    argss <- Gen.listOfN(n, Gen.listOfN(2, termGen))
  } yield Clause(
    Literal("t", Vector(head)),
    preds.zip(argss).map { case (p, as) => Literal(p, as.toVector) }.toVector,
  )

  /** A ground target with relation literals and similarity facts. */
  private val targetGen: Gen[Clause] = for {
    n     <- Gen.choose(1, 8)
    preds <- Gen.listOfN(n, anyPredGen)
    argss <- Gen.listOfN(n, Gen.listOfN(2, constGen))
    headC <- constGen
  } yield Clause(
    Literal("t", Vector(headC)),
    preds.zip(argss).map { case (p, as) => Literal(p, as.toVector) }.toVector,
  )

  /** Does some substitution of `c`'s variables map its head onto `g`'s and
    * every body literal onto a literal of `g`? A similarity literal holds on
    * a similarity fact of `g` in either orientation, or when both sides are
    * the same term. Variables range over `g`'s terms and `c`'s constants.
    */
  private def oracle(c: Clause, g: Clause): Boolean = {
    val vars   = (c.head +: c.body).flatMap(_.vars).distinct
    val domain = (g.head.args ++ g.body.flatMap(_.args) ++ c.body.flatMap(_.args) ++ c.head.args)
      .collect { case k: Const => k: Term }.distinct
    val facts  = g.body.toSet
    def holds(th: Map[Var, Term]): Boolean = {
      val l = (x: Literal) => x.copy(args = x.args.map {
        case v: Var => th.getOrElse(v, v)
        case k      => k
      })
      l(c.head) == g.head && c.body.map(l).forall { b =>
        facts.contains(b) ||
        (b.isSim && (b.args(0) == b.args(1) || facts.contains(Literal.sim(b.args(1), b.args(0)))))
      }
    }
    def search(i: Int, th: Map[Var, Term]): Boolean =
      if (i == vars.size) holds(th) else domain.exists(t => search(i + 1, th.updated(vars(i), t)))
    search(0, Map.empty)
  }

  test("subsumes agrees with a brute-force oracle (sound and complete)") {
    Props.check(Prop.forAll(clauseGen, targetGen) { (c, g) =>
      Subsume.subsumes(c, new GIndex(g), nodeCap = Int.MaxValue) == oracle(c, g)
    }, minTests = 10000)
  }

  test("ARMG keeps an ordered sub-list of the body and subsumes the target") {
    Props.check(Prop.forAll(clauseGen, targetGen, Gen.choose(1, 4)) { (c, g, cap) =>
      val r = Generalize.armg(c, new GIndex(g), maxFrontier = cap)
      def subList(xs: Vector[Literal], ys: Vector[Literal]): Boolean =
        xs.isEmpty || (ys.nonEmpty && subList(if (xs.head eq ys.head) xs.tail else xs, ys.tail))
      val headsUnify = oracle(Clause(c.head, Vector.empty), g)
      subList(r.body, c.body) && (!headsUnify || (oracle(r, g) && subsumes(r, new GIndex(g))))
    }, minTests = 5000)
  }

  /** Bodies of up to eight literals over variables x, y, z, w, a third of
    * them similarity literals, under a head on x: long enough for frontiers
    * of many substitutions, some of which leave variables unbound.
    */
  private val armgClauseGen: Gen[Clause] = for {
    n     <- Gen.choose(1, 8)
    preds <- Gen.listOfN(n, anyPredGen)
    argss <- Gen.listOfN(n, Gen.listOfN(2, termGen))
  } yield Clause(
    Literal("t", Vector(Var("x"))),
    preds.zip(argss).map { case (p, as) => Literal(p, as.toVector) }.toVector,
  )

  test("ARMG equals the reference LinkedHashSet frontier, clause for clause") {
    Props.check(Prop.forAll(armgClauseGen, targetGen, Gen.oneOf(1, 2, 3, 4, 256)) { (c, g, cap) =>
      val gi = new GIndex(g)
      Generalize.armg(c, gi, maxFrontier = cap) == ReferenceArmg.armg(c, gi, cap)
    }, minTests = 20000)
  }
}
