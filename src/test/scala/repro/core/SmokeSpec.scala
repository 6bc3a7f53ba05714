package repro.core

import repro.SparkSpec
import repro.core.db.Database
import repro.core.learn._
import repro.dirty.Movies
import repro.exp.{ExpScale, Tables}
import repro.spark.SimJoin

/** End-to-end smoke test of the learning pipeline on a tiny movies task. */
class SmokeSpec extends SparkSpec {

  test("DLearn learns a cross-database definition on tiny movies data") {
    val task = Tables.moviesTask(spark, ExpScale.tiny, nMds = 1, p = 0.0)
    val db   = Database.fromFrames(task.spec.schema, task.frames)
    val idx  = SimJoin.buildIndex(spark, db, task.spec.mds, km = 5)
    val params  = LearnParams(d = task.d, mdMode = MdMode.SimMd)
    val learner = new DLearn(db, task.spec, idx, params)
    val (defn, stats) = learner.learn(task.pos, task.neg)
    info(s"definition:\n${defn.render}")
    info(s"stats: $stats")
    assert(defn.clauses.nonEmpty, "should learn at least one clause")
    val posG = learner.coverage.groundAll(learner.builder, task.pos)
    val negG = learner.coverage.groundAll(learner.builder, task.neg)
    val m    = Eval.evaluate(learner, defn, posG, negG)
    info(f"train metrics: P=${m.precision}%.2f R=${m.recall}%.2f F1=${m.f1}%.2f")
    assert(m.f1 > 0.5, s"train F1 too low: ${m.f1}")
  }

  test("Castor-NoMD cannot reach the OMDB side") {
    val task    = Tables.moviesTask(spark, ExpScale.tiny, nMds = 1, p = 0.0)
    val db      = Database.fromFrames(task.spec.schema, task.frames)
    val params  = LearnParams(d = task.d, mdMode = MdMode.NoMd)
    val learner = new DLearn(db, task.spec, repro.spark.SimIndex.empty, params)
    val g       = learner.builder.build(task.pos.head, variabilize = false)
    assert(!g.body.exists(_.pred.startsWith("omdb_")), "NoMD bottom clause must stay in IMDB")
  }
}
