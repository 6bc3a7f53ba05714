package repro.core.learn

import scala.util.Random

import repro.core.db.{Database, DatasetSpec, Example}
import repro.core.logic.Definition
import repro.spark.SimIndex

/** Precision / recall / F1. */
final case class Metrics(tp: Int, fp: Int, fn: Int) {
  def precision: Double = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
  def recall: Double    = if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
  def f1: Double =
    if (precision + recall == 0.0) 0.0 else 2 * precision * recall / (precision + recall)
}

/** Result of one cross-validated run: mean F1 and mean per-fold time. */
final case class CvResult(
    f1: Double,
    precision: Double,
    recall: Double,
    timeMs: Long,
    definitionSample: String,
) {
  def timeMin: Double = timeMs / 60000.0
}

/** k-fold cross-validation harness (the paper reports 5-fold CV averages of
  * F1 and time, Sec. 6.1.3).
  */
object Eval {

  def folds[A](xs: Vector[A], k: Int, seed: Long): Vector[(Vector[A], Vector[A])] = {
    val shuffled = new Random(seed).shuffle(xs)
    val chunks   = Vector.tabulate(k)(i => shuffled.zipWithIndex.collect { case (x, j) if j % k == i => x })
    Vector.tabulate(k)(i => (chunks.patch(i, Nil, 1).flatten, chunks(i)))
  }

  /** Run 5-fold CV for one learner configuration. Ground bottom-clauses are
    * built once for all examples (they do not depend on the fold split); the
    * grounding cost is charged to each fold proportionally to its training
    * fraction, since a single run would have to ground its own training set.
    */
  def crossValidate(
      db: Database,
      spec: DatasetSpec,
      simIndex: SimIndex,
      params: LearnParams,
      pos: Vector[Example],
      neg: Vector[Example],
  ): CvResult = {
    val k       = 5
    val learner = new DLearn(db, spec, simIndex, params)

    val tg0  = System.nanoTime()
    val posG = learner.coverage.groundAll(learner.builder, pos)
    val negG = learner.coverage.groundAll(learner.builder, neg)
    val groundMs = (System.nanoTime() - tg0) / 1000000

    val posFolds = folds(posG, k, params.seed)
    val negFolds = folds(negG, k, params.seed + 1)

    var sumF1 = 0.0
    var sumP  = 0.0
    var sumR  = 0.0
    var sumMs = 0L
    var defSample = ""

    for (i <- 0 until k) {
      val (trP, teP) = posFolds(i)
      val (trN, teN) = negFolds(i)
      val t0 = System.nanoTime()
      val (defn, _) =
        learner.learn(trP.map(_.ex), trN.map(_.ex), preGround = Some((trP, trN)))
      val learnMs = (System.nanoTime() - t0) / 1000000
      val m  = evaluate(learner, defn, teP, teN)
      sumF1 += m.f1; sumP += m.precision; sumR += m.recall
      sumMs += learnMs + (groundMs * (k - 1)) / k
      if (i == 0) defSample = defn.render
    }
    CvResult(sumF1 / k, sumP / k, sumR / k, sumMs / k, defSample)
  }

  def evaluate(
      learner: DLearn,
      defn: Definition,
      testPos: Vector[GroundEx],
      testNeg: Vector[GroundEx],
  ): Metrics = {
    if (defn.isEmpty) return Metrics(0, 0, testPos.length)
    val cExps = defn.clauses.map(learner.coverage.expand)
    val predP = Par.count(testPos)(g => cExps.exists(e => learner.coverage.coversPos(e, g)))
    val predN = Par.count(testNeg)(g => cExps.exists(e => learner.coverage.coversPos(e, g)))
    Metrics(tp = predP, fp = predN, fn = testPos.length - predP)
  }
}
