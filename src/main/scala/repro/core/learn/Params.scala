package repro.core.learn

/** How a system may use matching dependencies (paper Sec. 6.1.3). */
sealed trait MdMode
object MdMode {
  /** Castor-NoMD: no MD information at all. */
  case object NoMd extends MdMode
  /** Castor-Exact / Castor-Clean: MD attribute pairs joined by exact equality. */
  case object ExactMd extends MdMode
  /** DLearn: MD attribute pairs joined through the top-k_m similarity index. */
  case object SimMd extends MdMode
}

/** Learner configuration: the three settings the systems of paper
  * Sec. 6.1.3 vary, plus the caps and thresholds every experiment runs with.
  *
  * @param d               bottom-clause BFS iterations (paper's `d`, Table 7)
  * @param mdMode          MD usage mode of the system under test
  * @param useCfdGroups    DLearn-CFD when true: `DLearn` hands the dataset's
  *                        CFDs to `Coverage`, whose tests enumerate the CFD
  *                        repairs of clauses and ground examples; when false
  *                        it hands none, so CFD violations are ignored (used
  *                        for MD-only DLearn and for DLearn-Repaired, whose
  *                        input has no violations)
  */
final case class LearnParams(
    d: Int = 3,
    mdMode: MdMode = MdMode.SimMd,
    useCfdGroups: Boolean = false,
) {
  /** Max literals per relation in a bottom clause (paper fixes 10). */
  val sampleSize: Int = 10
  /** |E^{+s}|: positives sampled per generalization step. */
  val candidateSample: Int = 10
  /** Max uncovered positives sampled to score a seed's candidates. */
  val evalPosCap: Int = 60
  /** Max negatives sampled to score a seed's candidates. */
  val evalNegCap: Int = 120
  /** Acceptance threshold on train precision of a clause. */
  val minPrecision: Double = 0.4
  /** A clause must cover at least this many positives. */
  val minPosCovered: Int = 3
  /** Covering-loop cap on definition size. */
  val maxClauses: Int = 6
  /** ARMG substitution-frontier cap. */
  val maxFrontier: Int = 256
  /** Cap on enumerated CFD-repaired versions of a clause. */
  val maxExpansions: Int = 16
  /** Recursion depth cap of CFD repair enumeration. */
  val maxExpandDepth: Int = 5
  /** θ-subsumption backtracking node cap. */
  val nodeCap: Int = 5000
  /** Seed of the learner's sampling and of the cross-validation folds. */
  val seed: Long = 7
}
