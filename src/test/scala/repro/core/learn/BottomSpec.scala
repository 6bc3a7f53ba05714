package repro.core.learn

import repro.SparkSpec
import repro.core.constraints.{CFD, MD}
import repro.core.db._
import repro.core.logic._
import repro.spark.{SimIndex, SimMatch}

/** Bottom-clause construction over a hand-built two-database instance:
  *
  *   db1: r1(id, name), r1b(id, tag)      — target binds to r1.id
  *   db2: r2(id2, name2), r2b(id2, tag2)  — reachable only via the MD
  *                                          r1.name ≈ r2.name2
  */
class BottomSpec extends SparkSpec {
  import spark.implicits._

  /** The node cap these tests run the subsumption search with. */
  private def subsumes(c: Clause, g: GIndex): Boolean = Subsume.subsumes(c, g, nodeCap = 200000)

  private val schema = Schema(Vector(
    RelSpec("r1", Vector("id", "name"), Set.empty),
    RelSpec("r1b", Vector("id", "tag"), Set("tag")),
    RelSpec("r2", Vector("id2", "name2"), Set.empty),
    RelSpec("r2b", Vector("id2", "tag2"), Set("tag2")),
  ))

  private val spec = DatasetSpec(
    name = "toy",
    schema = schema,
    target = TargetSpec("t", Vector("id"), Vector(Set(AttrRef("r1", "id")))),
    joinPairs = Vector(
      (AttrRef("r1", "id"), AttrRef("r1b", "id")),
      (AttrRef("r2", "id2"), AttrRef("r2b", "id2")),
    ),
    mds = Vector(MD(AttrRef("r1", "name"), AttrRef("r2", "name2"))),
    cfds = Vector(CFD.fd("r2b", Vector("id2"), "tag2")),
  )

  private def mkDb(
      r1: Seq[(String, String)] = Seq(("e1", "alpha beta")),
      r1b: Seq[(String, String)] = Seq(("e1", "red")),
      r2: Seq[(String, String)] = Seq(("f1", "alpha beta x")),
      r2b: Seq[(String, String)] = Seq(("f1", "blue")),
  ): Database =
    Database.fromFrames(schema, Map(
      "r1"  -> r1.toDF("id", "name"),
      "r1b" -> r1b.toDF("id", "tag"),
      "r2"  -> r2.toDF("id2", "name2"),
      "r2b" -> r2b.toDF("id2", "tag2"),
    ))

  private def idx(pairs: (String, String)*): SimIndex = {
    val a2b = pairs.groupBy(_._1).map { case (a, ps) => a -> ps.map(p => SimMatch(p._2, 0.9)).toVector }
    val b2a = pairs.groupBy(_._2).map { case (b, ps) => b -> ps.map(p => SimMatch(p._1, 0.9)).toVector }
    SimIndex(Map(
      SimIndex.dirKey(AttrRef("r1", "name"), AttrRef("r2", "name2")) -> a2b,
      SimIndex.dirKey(AttrRef("r2", "name2"), AttrRef("r1", "name")) -> b2a,
    ))
  }

  private def builder(db: Database, params: LearnParams, s: DatasetSpec = spec,
                      sim: SimIndex = idx(("alpha beta", "alpha beta x"))): BottomBuilder =
    new BottomBuilder(db, s, sim, params)

  private val e1 = Example("t", Vector("e1"), positive = true)
  private val x  = Var("x"); private val y = Var("y"); private val z = Var("z")

  test("d=1 reaches only the directly bound relation") {
    val c = builder(mkDb(), LearnParams(d = 1)).build(e1, variabilize = true)
    assert(c.body.map(_.pred).toSet == Set("r1"))
  }

  test("d=2 adds the intra-db join and the MD similarity hop") {
    val c = builder(mkDb(), LearnParams(d = 2)).build(e1, variabilize = true)
    assert(c.body.map(_.pred).toSet == Set("r1", "r1b", Literal.Sim, "r2"))
  }

  test("d=3 reaches the far side of the second database") {
    val c = builder(mkDb(), LearnParams(d = 3)).build(e1, variabilize = true)
    assert(c.body.map(_.pred).toSet == Set("r1", "r1b", Literal.Sim, "r2", "r2b"))
  }

  test("similarity literal connects the two name terms") {
    val c    = builder(mkDb(), LearnParams(d = 2)).build(e1, variabilize = true)
    val sims = c.body.filter(_.isSim)
    assert(sims.size == 1)
    val r1Name = c.body.find(_.pred == "r1").get.args(1)
    val r2Name = c.body.find(_.pred == "r2").get.args(1)
    assert(sims.head.args.toSet == Set(r1Name, r2Name))
  }

  test("ground mode keeps constants everywhere") {
    val c = builder(mkDb(), LearnParams(d = 3)).build(e1, variabilize = false)
    assert((c.head +: c.body).forall(_.vars.isEmpty))
    assert(c.head == Literal("t", Vector(Const("e1"))))
    assert(c.body.contains(Literal("r1", Vector(Const("e1"), Const("alpha beta")))))
  }

  test("variabilized mode maps each join constant to one variable") {
    val c  = builder(mkDb(), LearnParams(d = 3)).build(e1, variabilize = true)
    val r1 = c.body.find(_.pred == "r1").get
    assert(c.head.args.head == r1.args.head, "head id var must equal r1 id var")
    assert(r1.args.forall(_.isInstanceOf[Var]))
  }

  test("const-mode attributes stay constants in variabilized clauses") {
    val c = builder(mkDb(), LearnParams(d = 3)).build(e1, variabilize = true)
    assert(c.body.find(_.pred == "r1b").get.args(1) == Const("red"))
    assert(c.body.find(_.pred == "r2b").get.args(1) == Const("blue"))
  }

  test("NoMd mode never crosses databases") {
    val c = builder(mkDb(), LearnParams(d = 4, mdMode = MdMode.NoMd)).build(e1, variabilize = true)
    assert(c.body.map(_.pred).toSet == Set("r1", "r1b"))
  }

  test("ExactMd mode crosses only on identical values") {
    val db  = mkDb(r2 = Seq(("f1", "alpha beta"), ("f2", "other name")))
    val par = LearnParams(d = 3, mdMode = MdMode.ExactMd)
    val c   = new BottomBuilder(db, spec.withExactMdJoins, SimIndex.empty, par).build(e1, variabilize = true)
    val r2s = c.body.filter(_.pred == "r2")
    assert(r2s.size == 1, "only the identical name joins")
    assert(c.body.forall(!_.isSim), "exact mode adds no sim literals")
  }

  test("sampleSize caps literals per relation") {
    val manyR1b = (1 to 20).map(i => ("e1", s"tag$i"))
    val c = builder(mkDb(r1b = manyR1b), LearnParams(d = 2)).build(e1, variabilize = true)
    assert(c.body.count(_.pred == "r1b") == 10)
  }

  /** A learner over a database whose r2b violates the FD id2 → tag2. */
  private def dirtyLearner(useCfdGroups: Boolean): DLearn =
    new DLearn(mkDb(r2b = Seq(("f1", "blue"), ("f1", "green"))), spec,
      idx(("alpha beta", "alpha beta x")), LearnParams(d = 3, useCfdGroups = useCfdGroups))

  test("CFD violations among collected tuples become groups") {
    val l = dirtyLearner(useCfdGroups = true)
    val c = l.builder.build(e1, variabilize = true)
    assert(Expand.detectGroups(c.body, spec.cfds, schema).map(_.cfdId) == Vector(0))
    assert(l.coverage.expand(c).size >= 2)
  }

  test("groups are off when useCfdGroups is false") {
    val l = dirtyLearner(useCfdGroups = false)
    val c = l.builder.build(e1, variabilize = true)
    assert(l.coverage.expand(c) == Vector(c))
  }

  test("construction is deterministic") {
    val db = mkDb()
    val p  = LearnParams(d = 3)
    assert(builder(db, p).build(e1, variabilize = true) == builder(db, p).build(e1, variabilize = true))
  }

  test("bottom clause covers its own example (Prop 4.3)") {
    val p  = LearnParams(d = 3)
    val db = mkDb()
    val cv = builder(db, p).build(e1, variabilize = true)
    val g  = builder(db, p).build(e1, variabilize = false)
    assert(subsumes(cv, new GIndex(g)))
  }

  test("a null value joins nothing, also through a similarity literal") {
    // e2's name is null: its ground clause holds a fresh Var there, which
    // the subsumption search treats as a term equal only to itself.
    val db = mkDb(r1 = Seq(("e1", "alpha beta"), ("e2", null)), r1b = Seq(("e1", "red"), ("e2", "red")))
    val g  = builder(db, LearnParams(d = 3)).build(Example("t", Vector("e2"), positive = true), variabilize = false)
    val name = g.body.find(_.pred == "r1").get.args(1)
    assert(name.isInstanceOf[Var])
    val c = Clause(
      Literal("t", Vector(x)),
      Vector(Literal("r1", Vector(x, y)), Literal.sim(y, z), Literal("r1b", Vector(x, z))),
    )
    assert(!subsumes(c, new GIndex(g)))
    assert(subsumes(c.copy(body = c.body.filterNot(_.isSim)), new GIndex(g)))
  }

  test("multiple sim matches add multiple target tuples (k_m effect)") {
    val db  = mkDb(r2 = Seq(("f1", "alpha beta x"), ("f2", "alpha beta y")))
    val sim = idx(("alpha beta", "alpha beta x"), ("alpha beta", "alpha beta y"))
    val c   = builder(db, LearnParams(d = 2), sim = sim).build(e1, variabilize = true)
    assert(c.body.count(_.pred == "r2") == 2)
    assert(c.body.count(_.isSim) == 2)
  }

  test("unknown example predicate is rejected") {
    intercept[IllegalArgumentException](
      builder(mkDb(), LearnParams(d = 1)).build(Example("zzz", Vector("e1"), positive = true), variabilize = true)
    )
  }

  test("example with no matching tuples yields an empty body") {
    val c = builder(mkDb(), LearnParams(d = 3)).build(Example("t", Vector("nope"), positive = true), variabilize = true)
    assert(c.body.isEmpty)
  }

  test("second database tuples do not leak without a sim match") {
    val c = builder(mkDb(), LearnParams(d = 3), sim = SimIndex.empty).build(e1, variabilize = true)
    assert(!c.body.exists(l => l.pred == "r2" || l.pred == "r2b"))
  }
}
