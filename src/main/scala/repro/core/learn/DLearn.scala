package repro.core.learn

import scala.util.Random

import repro.core.db.{Database, DatasetSpec, Example}
import repro.core.logic.{Clause, Definition}
import repro.spark.SimIndex

/** Size of one learned definition. */
final case class LearnStats(clauses: Int, literals: Int)

/** The DLearn covering-loop learner (paper Algorithm 1 + Sec. 4), also used
  * for every baseline via [[LearnParams]] / [[DatasetSpec]] configuration:
  * Castor-NoMD (`MdMode.NoMd`), Castor-Exact (`MdMode.ExactMd` over
  * `spec.withExactMdJoins`), Castor-Clean (ExactMd over the resolved
  * database), DLearn (`MdMode.SimMd`), DLearn-CFD (`useCfdGroups = true`),
  * DLearn-Repaired (SimMd over the minimally repaired database).
  */
final class DLearn(
    db: Database,
    spec: DatasetSpec,
    simIndex: SimIndex,
    params: LearnParams,
) {
  val builder  = new BottomBuilder(db, spec, simIndex, params)
  val coverage = new Coverage(if (params.useCfdGroups) spec.cfds else Vector.empty, db.schema, params)

  /** Learn a definition from training examples. Ground bottom-clauses may be
    * passed in pre-computed (they are fold-independent); otherwise they are
    * built here.
    */
  def learn(
      trainPos: Seq[Example],
      trainNeg: Seq[Example],
      preGround: Option[(Vector[GroundEx], Vector[GroundEx])] = None,
  ): (Definition, LearnStats) = {
    val (posG, negG) = preGround.getOrElse(
      (coverage.groundAll(builder, trainPos), coverage.groundAll(builder, trainNeg))
    )
    val rng = new Random(params.seed)
    // Coverage is decided per (clause, example) at most once per call:
    // examples are referred to by their position in `posG` / `negG`.
    def record(c: Clause) = new CoverageRecord(coverage, c, posG, negG)
    val allNeg = negG.indices.toVector

    var uncovered = posG.indices.toVector
    val clauses   = Vector.newBuilder[Clause]
    var nClauses  = 0
    var nLits     = 0

    while (uncovered.nonEmpty && nClauses < params.maxClauses) {
      val seed = posG(uncovered.head)
      var best = record(builder.build(seed.ex, variabilize = true))

      // During the generalization search, score candidates on a fixed sample
      // of the training examples (full counts decide acceptance below) — the
      // candidate clauses of early rounds are near-bottom-sized and coverage
      // tests dominate learning time (paper Sec. 4.3).
      val posEval =
        if (uncovered.length <= params.evalPosCap) uncovered
        else rng.shuffle(uncovered).take(params.evalPosCap)
      val negEval =
        if (negG.length <= params.evalNegCap) allNeg
        else rng.shuffle(allNeg).take(params.evalNegCap)

      val (p0, n0)  = best.counts(posEval, negEval)
      var bestScore = p0 - n0

      var improved = true
      while (improved) {
        improved = false
        val notCovered = best.uncoveredPos(uncovered)
        val sample     = rng.shuffle(notCovered).take(params.candidateSample)
        if (sample.nonEmpty) {
          val cands = Par.map(sample) { i =>
            val c = Generalize.armg(best.clause, posG(i).raw, params.maxFrontier)
            if (c.headConnected && c.body.nonEmpty) Some(c) else None
          }.flatten.distinct
          if (cands.nonEmpty) {
            // Near-bottom candidates (early rounds) are by far the most
            // expensive to test; score them on a half-size sample. Scores are
            // only compared within one round, so the sample just needs to be
            // fixed across the round's candidates.
            val big  = cands.exists(_.body.size > 50)
            val pEv  = if (big) posEval.take(math.max(10, posEval.size / 2)) else posEval
            val nEv  = if (big) negEval.take(math.max(20, negEval.size / 2)) else negEval
            val recs   = cands.map(record)
            val scored = recs.zip(CoverageRecord.countsAll(recs, pEv, nEv).map { case (p, n) => p - n })
            val (r, s0) = scored.maxBy(x => (x._2, -x._1.clause.body.length))
            // Half-sample scores are only comparable within the round; the
            // winner is re-scored on the full eval sample before being
            // compared against the incumbent.
            val s = if (big) { val (p, n) = r.counts(posEval, negEval); p - n } else s0
            if (s > bestScore) {
              best = r; bestScore = s; improved = true
            }
          }
        }
      }

      // Full-count acceptance.
      val (bestPos, bestNeg) = best.counts(uncovered, allNeg)
      val precision =
        if (bestPos + bestNeg == 0) 0.0 else bestPos.toDouble / (bestPos + bestNeg)
      if (
        best.clause.headConnected && bestPos >= params.minPosCovered &&
        precision >= params.minPrecision
      ) {
        best = reduce(best, posEval.take(20), negEval.take(50), record)
        clauses += best.clause
        nClauses += 1
        nLits += best.clause.body.length
        uncovered = best.uncoveredPos(uncovered)
      } else {
        uncovered = uncovered.tail // discard the seed example (noise / unlearnable)
      }
    }

    (Definition(clauses.result()), LearnStats(nClauses, nLits))
  }

  /** Negative-based clause reduction (ProGolem/Castor): drop body literals as
    * long as positive coverage does not shrink and negative coverage does not
    * grow — yields the paper's compact clauses and speeds up later coverage
    * tests. Dropping only generalizes, so positives can only grow; requiring
    * unchanged negatives keeps the clause's score. Decisions are made on the
    * (small) sampled example sets passed in; literals are attempted from the
    * end of the body first — BFS emits the speculative deep literals last.
    */
  private def reduce(
      c: CoverageRecord,
      pos: Vector[Int],
      neg: Vector[Int],
      record: Clause => CoverageRecord,
  ): CoverageRecord = {
    var cur      = c
    var (p0, n0) = cur.counts(pos, neg)
    var i        = cur.clause.body.length - 1
    while (i >= 0) {
      val body = cur.clause.body
      if (i < body.length) {
        val cand = Clause(cur.clause.head, body.patch(i, Nil, 1)).normalized
        val ok   = cand.body.nonEmpty && cand.headConnected && cand.body.length < body.length
        if (ok) {
          val r      = record(cand)
          val (p, n) = r.counts(pos, neg)
          if (p >= p0 && n <= n0) { cur = r; p0 = p; n0 = n }
        }
      }
      i -= 1
    }
    cur
  }
}
