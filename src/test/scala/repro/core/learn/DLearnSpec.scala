package repro.core.learn

import repro.SparkSpec
import repro.core.constraints.{CFD, MD}
import repro.core.db._
import repro.core.logic._
import repro.exp.{ExpScale, Tables, TaskData}
import repro.spark.{SimIndex, SimJoin, SimMatch}

/** Covering-loop learner on a small controlled two-database world:
  * entity i is positive iff tag(i) == "red" (db1) AND tag2(i) == "blue" (db2);
  * db2 is reachable only through a name MD. Names differ across databases by
  * a suffix; the sim index links them.
  */
class DLearnSpec extends SparkSpec {
  import spark.implicits._

  private val n = 60
  private def name(i: Int)  = s"entity number $i"
  private def name2(i: Int) = s"entity number $i x"
  private def red(i: Int)   = i % 2 == 0
  private def blue(i: Int)  = i % 3 == 0
  private def pos(i: Int)   = red(i) && blue(i)

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

  private def world(m: Int, tag: Int => String): Database = Database.fromFrames(schema, Map(
    "r1"  -> (0 until m).map(i => (s"e$i", name(i))).toDF("id", "name"),
    "r1b" -> (0 until m).map(i => (s"e$i", tag(i))).toDF("id", "tag"),
    "r2"  -> (0 until m).map(i => (s"f$i", name2(i))).toDF("id2", "name2"),
    "r2b" -> (0 until m).map(i => (s"f$i", if (blue(i)) "blue" else "pink")).toDF("id2", "tag2"),
  ))
  private def db = world(n, i => if (red(i)) "red" else "grey")

  private val simIndex = SimIndex(Map(
    SimIndex.dirKey(AttrRef("r1", "name"), AttrRef("r2", "name2")) ->
      (0 until n).map(i => name(i) -> Vector(SimMatch(name2(i), 0.9))).toMap,
    SimIndex.dirKey(AttrRef("r2", "name2"), AttrRef("r1", "name")) ->
      (0 until n).map(i => name2(i) -> Vector(SimMatch(name(i), 0.9))).toMap,
  ))

  private val examples: Vector[Example] =
    (0 until n).map(i => Example("t", Vector(s"e$i"), positive = pos(i))).toVector
  private val posEx = examples.filter(_.positive)
  private val negEx = examples.filterNot(_.positive)

  private val params = LearnParams(d = 3)

  test("DLearn learns the cross-database conjunction exactly") {
    val learner = new DLearn(db, spec, simIndex, params)
    val (defn, stats) = learner.learn(posEx, negEx)
    assert(defn.clauses.nonEmpty)
    val posG = learner.coverage.groundAll(learner.builder, posEx)
    val negG = learner.coverage.groundAll(learner.builder, negEx)
    val m    = Eval.evaluate(learner, defn, posG, negG)
    assert(m.f1 == 1.0, s"expected perfect train F1, got $m\n${defn.render}")
    assert(stats.clauses == defn.clauses.size)
  }

  test("the learned clause uses both databases") {
    val learner  = new DLearn(db, spec, simIndex, params)
    val (defn, _) = learner.learn(posEx, negEx)
    val preds = defn.clauses.flatMap(_.body.map(_.pred)).toSet
    assert(preds.contains("r1b"), "needs the db1 tag")
    assert(preds.contains("r2b"), "needs the db2 tag")
  }

  test("without MDs the learner cannot reach db2 and precision collapses") {
    val p       = params.copy(mdMode = MdMode.NoMd)
    val learner = new DLearn(db, spec, SimIndex.empty, p)
    val (defn, _) = learner.learn(posEx, negEx)
    // The only db1 signal is tag=red with precision 1/3 < 0.4 → empty.
    assert(defn.isEmpty, defn.render)
  }

  test("maxClauses caps the definition size") {
    // Eight tags, each owned by four positives only: every tag is its own
    // precise clause, so only the cap stops the covering loop short of 8.
    val m       = 80
    val owners  = 32
    val learner = new DLearn(world(m, i => if (i < owners) s"k${i / 4}" else "grey"), spec,
      SimIndex.empty, params.copy(mdMode = MdMode.NoMd))
    val ex = (0 until m).map(i => Example("t", Vector(s"e$i"), positive = i < owners)).toVector
    val (defn, _) = learner.learn(ex.filter(_.positive), ex.filterNot(_.positive))
    assert(defn.clauses.size == 6, defn.render)
  }

  test("learn is deterministic for a fixed seed") {
    val l1 = new DLearn(db, spec, simIndex, params)
    val l2 = new DLearn(db, spec, simIndex, params)
    assert(l1.learn(posEx, negEx)._1 == l2.learn(posEx, negEx)._1)
  }

  test("predicts matches evaluate semantics") {
    val learner   = new DLearn(db, spec, simIndex, params)
    val (defn, _) = learner.learn(posEx, negEx)
    def ground(e: Example) = learner.coverage.groundFrom(e, learner.builder.build(e, variabilize = false))
    assert(Eval.evaluate(learner, defn, Vector(ground(posEx.head)), Vector(ground(negEx.head))) ==
      Metrics(tp = 1, fp = 0, fn = 0))
  }

  test("pre-grounded learning matches self-grounded learning") {
    val learner = new DLearn(db, spec, simIndex, params)
    val posG = learner.coverage.groundAll(learner.builder, posEx)
    val negG = learner.coverage.groundAll(learner.builder, negEx)
    val (d1, _) = learner.learn(posEx, negEx)
    val (d2, _) = learner.learn(posEx, negEx, preGround = Some((posG, negG)))
    assert(d1 == d2)
  }

  test("learning with zero positives returns an empty definition") {
    val learner = new DLearn(db, spec, simIndex, params)
    val (defn, stats) = learner.learn(Vector.empty, negEx)
    assert(defn.isEmpty)
    assert(stats.clauses == 0)
  }

  // ---- golden definitions: reusing coverage decisions within a `learn`
  // call and the ARMG frontier's layout must not move any learned clause.

  private def learned(t: TaskData, km: Int, cfd: Boolean): String = {
    val db  = Database.fromFrames(t.spec.schema, t.frames)
    val idx = SimJoin.buildIndex(spark, db, t.spec.mds, km)
    val l   = new DLearn(db, t.spec, idx, LearnParams(d = t.d, mdMode = MdMode.SimMd, useCfdGroups = cfd))
    l.learn(t.pos, t.neg)._1.render
  }

  test("golden definition: DLearn k_m=2 on tiny papers") {
    assert(learned(Tables.papersTask(spark, ExpScale.tiny, p = 0.0), km = 2, cfd = false) ==
      """gsPaperYear(v1, v2) :- scholar_paper(v1, v3, v4), dblp_paper(v12, v13, v4, v2), ≈(v3, v13)
        |gsPaperYear(v1, v2) :- scholar_paper(v1, v3, v4), dblp_paper(v8, v9, v10, v2), ≈(v3, v9), ≈(v4, v10)""".stripMargin)
  }

  test("golden definition: DLearn k_m=2 on tiny products") {
    assert(learned(Tables.productsTask(spark, ExpScale.tiny, p = 0.0), km = 2, cfd = false) ==
      """upcOfComputersAccessories(v1) :- walmart_ids(v2, v3, v1), amazon_category(v5, "ComputersAccessories"), amazon_brand(v5, v3)""")
  }

  test("golden definition: DLearn-CFD k_m=5 on tiny movies with 3 MDs at p=0.1") {
    assert(learned(Tables.moviesTask(spark, ExpScale.tiny, nMds = 3, p = 0.1), km = 5, cfd = true) ==
      """dramaRestricted(v1) :- imdb_movies(v1, v2, v3), imdb_mov2genres(v1, "Drama"), imdb_mov2countries(v1, "usa"), imdb_mov2cast(v1, v4), imdb_mov2cast(v1, v5), imdb_mov2writers(v1, v6), omdb_movies(v10, v11, v12), ≈(v2, v11), omdb_movies(v16, v17, v18), ≈(v2, v17), omdb_movies(v19, v20, v21), ≈(v2, v20), omdb_mov2cast(v27, v26), ≈(v4, v26), omdb_mov2cast(v28, v29), ≈(v4, v29), ≈(v4, v31), omdb_mov2cast(v33, v34), ≈(v4, v34), omdb_mov2writers(v36, v6), imdb_movies(v52, v53, v54), ≈(v2, v53), imdb_movies(v55, v56, v57), ≈(v2, v56), imdb_movies(v58, v59, v60), ≈(v2, v59), imdb_movies(v61, v62, v63), ≈(v11, v62), omdb_mov2rating(v16, "R"), imdb_mov2cast(v78, v26), imdb_mov2cast(v80, v29), imdb_mov2cast(v82, v31), omdb_mov2rating(v27, "PG13"), imdb_mov2countries(v52, "usa")
        |dramaRestricted(v1) :- imdb_mov2genres(v1, "Drama"), imdb_mov2cast(v1, v4), omdb_mov2cast(v8, v4), omdb_mov2genres(v8, "Drama"), omdb_mov2rating(v8, "R")
        |dramaRestricted(v1) :- imdb_movies(v1, v2, v3), imdb_mov2genres(v1, "Drama"), omdb_movies(v8, v2, v3), omdb_mov2rating(v8, "R")""".stripMargin)
  }
}
