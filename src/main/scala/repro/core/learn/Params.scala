package repro.core.learn

/** How a system may use matching dependencies (paper Sec. 6.1.3). */
sealed trait MdMode extends Serializable
object MdMode {
  /** Castor-NoMD: no MD information at all. */
  case object NoMd extends MdMode
  /** Castor-Exact / Castor-Clean: MD attribute pairs joined by exact equality. */
  case object ExactMd extends MdMode
  /** DLearn: MD attribute pairs joined through the top-k_m similarity index. */
  case object SimMd extends MdMode
}

/** Learner configuration.
  *
  * @param d               bottom-clause BFS iterations (paper's `d`, Table 7)
  * @param sampleSize      max literals per relation in a bottom clause (paper fixes 10)
  * @param mdMode          MD usage mode of the system under test
  * @param useCfdGroups    DLearn-CFD when true; when false CFD violations in
  *                        clauses are ignored (used for MD-only DLearn and for
  *                        DLearn-Repaired, whose input has no violations)
  * @param candidateSample |E^{+s}|: positives sampled per generalization step
  * @param minPrecision    acceptance threshold on train precision of a clause
  * @param minPosCovered   clause must cover at least this many positives
  * @param maxClauses      covering-loop cap on definition size
  * @param maxFrontier     ARMG substitution-frontier cap
  * @param maxExpansions   cap on enumerated CFD-repaired versions of a clause
  * @param nodeCap         θ-subsumption backtracking node cap
  */
final case class LearnParams(
    d: Int = 3,
    sampleSize: Int = 10,
    mdMode: MdMode = MdMode.SimMd,
    useCfdGroups: Boolean = false,
    candidateSample: Int = 8,
    evalPosCap: Int = 60,
    evalNegCap: Int = 120,
    minPrecision: Double = 0.65,
    minPosCovered: Int = 2,
    maxClauses: Int = 8,
    maxFrontier: Int = 256,
    maxExpansions: Int = 16,
    maxExpandDepth: Int = 5,
    nodeCap: Int = 5000,
    seed: Long = 7,
) extends Serializable
