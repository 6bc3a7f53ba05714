package repro.exp

import repro.SparkSpec
import repro.core.db.Database
import repro.core.learn.{DLearn, Eval, LearnParams, MdMode}
import repro.spark.SimJoin

/** Integration tests of the experiment harness at tiny scale. */
class TablesSpec extends SparkSpec {

  test("moviesTask wires the paper's configuration") {
    val t1 = Tables.moviesTask(spark, ExpScale.tiny, nMds = 1, p = 0.0)
    val t3 = Tables.moviesTask(spark, ExpScale.tiny, nMds = 3, p = 0.0)
    assert(t1.spec.mds.size == 1 && t3.spec.mds.size == 3)
    assert(t1.d == 4, "paper uses d=4 for IMDB+OMDB")
    // tiny movie population yields slightly fewer positives than requested
    assert(t1.pos.size >= 20 && t1.pos.size <= ExpScale.tiny.moviesEx._1)
    assert(t1.neg.size == ExpScale.tiny.moviesEx._2)
    assert(t1.spec.cfds.size == 4)
  }

  test("productsTask wires the paper's configuration") {
    val t = Tables.productsTask(spark, ExpScale.tiny, p = 0.0)
    assert(t.d == 4, "category is four hops from the upc")
    assert(t.spec.mds.size == 1 && t.spec.cfds.size == 6)
    assert(t.pos.size == ExpScale.tiny.productsEx._1)
  }

  test("papersTask wires the paper's configuration") {
    val t = Tables.papersTask(spark, ExpScale.tiny, p = 0.0)
    assert(t.spec.mds.size == 2 && t.spec.cfds.size == 2)
    assert(t.spec.target.arity == 2)
    assert(t.neg.size == ExpScale.tiny.papersEx._2)
  }

  test("injection increases CFD-relation cardinalities only") {
    val clean = Tables.moviesTask(spark, ExpScale.tiny, nMds = 1, p = 0.0)
    val dirty = Tables.moviesTask(spark, ExpScale.tiny, nMds = 1, p = 0.2)
    assert(dirty.frames("omdb_mov2rating").count() > clean.frames("omdb_mov2rating").count())
    assert(dirty.frames("omdb_mov2cast").count() == clean.frames("omdb_mov2cast").count())
  }

  test("tasks are deterministic in the seed") {
    val a = Tables.papersTask(spark, ExpScale.tiny, p = 0.1)
    val b = Tables.papersTask(spark, ExpScale.tiny, p = 0.1)
    assert(a.pos == b.pos && a.neg == b.neg)
    assert(a.frames("dblp_paper").collect().toSet == b.frames("dblp_paper").collect().toSet)
  }

  test("Bench: papers NoMD learns nothing, DLearn learns well (tiny CV)") {
    val t = Tables.papersTask(spark, ExpScale.tiny, p = 0.0)
    val b = new Bench(spark, t)
    val noMd = b.castorNoMd()
    assert(noMd.f1 == 0.0, s"NoMD must be 0 on papers, got ${noMd.f1}")
    val dl = b.dlearn(5)
    assert(dl.f1 > 0.6, s"DLearn must learn the year join, got ${dl.f1}")
    assert(dl.timeMs >= noMd.timeMs, "DLearn pays the similarity-index cost")
  }

  test("Bench: database is collected once and reused") {
    val t = Tables.productsTask(spark, ExpScale.tiny, p = 0.0)
    val b = new Bench(spark, t)
    assert(b.db eq b.db)
    assert(b.db.tupleCount == t.frames.values.map(_.count()).sum)
  }

  test("Bench: simIndex truncation honors k_m") {
    val t = Tables.productsTask(spark, ExpScale.tiny, p = 0.0)
    val b = new Bench(spark, t)
    val i2  = b.simIndex(2)
    val i10 = b.simIndex(10)
    val (refA, refB) = t.spec.mds.head.pairs.head
    val counts2  = b.db.domain(refA).map(v => i2.matches(refA, refB, v).size)
    val counts10 = b.db.domain(refA).map(v => i10.matches(refA, refB, v).size)
    assert(counts2.forall(_ <= 2))
    assert(counts10.max > 2, "some value should have more than 2 matches at k=10")
  }

  test("products: a positive reaches amazon_category, train F1 > 0.5") {
    val t       = Tables.productsTask(spark, ExpScale.tiny, p = 0.0)
    val db      = Database.fromFrames(t.spec.schema, t.frames)
    val idx     = SimJoin.buildIndex(spark, db, t.spec.mds, km = 2)
    val learner = new DLearn(db, t.spec, idx, LearnParams(d = t.d, mdMode = MdMode.SimMd))
    val g       = learner.builder.build(t.pos.head, variabilize = false)
    assert(g.body.exists(_.pred == "amazon_category"), "positive example must reach amazon_category")
    val (defn, _) = learner.learn(t.pos, t.neg)
    val posG = learner.coverage.groundAll(learner.builder, t.pos)
    val negG = learner.coverage.groundAll(learner.builder, t.neg)
    val m    = Eval.evaluate(learner, defn, posG, negG)
    assert(m.f1 > 0.5, s"train F1 ${m.f1}")
  }
}
