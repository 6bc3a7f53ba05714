package repro.core.learn

import scala.collection.mutable

import repro.core.db.{AttrRef, Database, DatasetSpec, Example}
import repro.core.logic._
import repro.spark.SimIndex

/** Bottom-clause construction (paper Algorithm 2).
  *
  * BFS from the example's constants for `d` iterations. Exact expansion
  * follows the dataset's join graph (index lookups, the paper's SQL
  * selections); similarity expansion follows the MDs through the precomputed
  * top-k_m similarity index (the paper's `ψ_{B≈M}`), recording a similarity
  * literal per matched value pair. Per-relation literal count is capped by
  * `sampleSize` (paper Sec. 5). The clause records no CFD violations:
  * `Expand` derives them from the body where coverage needs them
  * (DESIGN.md §7.2).
  */
final class BottomBuilder(
    db: Database,
    spec: DatasetSpec,
    simIndex: SimIndex,
    params: LearnParams,
) extends Serializable {

  private sealed trait Event
  private final case class TupleEvent(rel: String, idx: Int)          extends Event
  private final case class SimEvent(src: String, dst: String)         extends Event

  /** Build the bottom clause for example `e`.
    *
    * @param variabilize when true, join-attribute constants become variables
    *                    (the learnable clause `C_e`); when false the clause
    *                    stays ground (the coverage-test `G_e`).
    */
  def build(e: Example, variabilize: Boolean): Clause = {
    require(e.pred == spec.target.name, s"example predicate ${e.pred} != target")
    val chosen   = mutable.LinkedHashSet.empty[(String, Int)]
    val relCount = mutable.HashMap.empty[String, Int].withDefaultValue(0)
    val expanded = mutable.HashSet.empty[(String, String)]
    val simSeen  = mutable.HashSet.empty[(String, String)]
    val events   = mutable.ArrayBuffer.empty[Event]
    var nextFrontier = mutable.ArrayBuffer.empty[(String, AttrRef)]

    def tryAdd(rel: String, idx: Int): Boolean = {
      val k = (rel, idx)
      if (chosen.contains(k)) true
      else if (relCount(rel) >= params.sampleSize) false
      else {
        chosen += k
        relCount(rel) += 1
        events += TupleEvent(rel, idx)
        val rspec = db.schema(rel)
        val t     = db.tuples(rel)(idx)
        var j = 0
        while (j < rspec.arity) {
          if (!rspec.isConstAttr(j) && t(j) != null)
            nextFrontier += ((t(j), AttrRef(rel, rspec.attrs(j))))
          j += 1
        }
        true
      }
    }

    // Similarity literals are capped like relation literals: without a cap,
    // deep BFS rounds keep recording facts between already-collected tuples
    // and clause size (hence θ-subsumption cost) explodes.
    val maxSimLits = 3 * params.sampleSize
    def recordSim(src: String, dst: String): Unit =
      if (simSeen.size / 2 < maxSimLits && simSeen.add((src, dst)) && simSeen.add((dst, src)))
        events += SimEvent(src, dst)

    def searchSim(from: AttrRef, to: AttrRef, v: String): Unit = {
      val toIdx = db.schema(to.rel).attrIdx(to.attr)
      for (m <- simIndex.matches(from, to, v)) {
        val hits = db.lookup(to.rel, toIdx, m.value)
        var added = false
        var i = 0
        while (i < hits.length) {
          if (tryAdd(to.rel, hits(i))) added = true
          i += 1
        }
        if (added && m.value != v) recordSim(v, m.value)
      }
    }

    def neighbors(ref: AttrRef): Vector[AttrRef] =
      if (ref.rel == spec.target.name) {
        val i = spec.target.attrs.indexOf(ref.attr)
        if (i >= 0) spec.target.bindings(i).toVector else Vector.empty
      } else spec.joinGraph(ref)

    // Round 0: the example's own constants at the target relation.
    var frontier: mutable.ArrayBuffer[(String, AttrRef)] =
      mutable.ArrayBuffer.from(
        e.args.zip(spec.target.attrs).collect { case (v, a) if v != null => (v, AttrRef(spec.target.name, a)) }
      )

    var round = 0
    while (round < params.d && frontier.nonEmpty) {
      nextFrontier = mutable.ArrayBuffer.empty
      for ((v, ref) <- frontier) {
        if (expanded.add((v, ref.key))) {
          for (nref <- neighbors(ref)) {
            val i    = db.schema(nref.rel).attrIdx(nref.attr)
            val hits = db.lookup(nref.rel, i, v)
            var h = 0
            while (h < hits.length) { tryAdd(nref.rel, hits(h)); h += 1 }
          }
          if (params.mdMode == MdMode.SimMd) {
            for (md <- spec.mds; (a, b) <- md.pairs) {
              if (ref == a) searchSim(a, b, v)
              else if (ref == b) searchSim(b, a, v)
            }
          }
        }
      }
      frontier = nextFrontier
      round += 1
    }

    // Term assignment: one variable per distinct join-attribute constant.
    val varOf  = mutable.LinkedHashMap.empty[String, Var]
    var varCnt = 0
    def varFor(value: String): Var =
      varOf.getOrElseUpdate(value, { varCnt += 1; Var(s"v$varCnt") })
    def term(value: String, isConst: Boolean): Term =
      if (value == null) { varCnt += 1; Var(s"v$varCnt") } // nulls join nothing
      else if (variabilize && !isConst) varFor(value)
      else Const(value)

    val head = Literal(
      spec.target.name,
      e.args.map(v => term(v, isConst = false)),
    )
    val body = Vector.newBuilder[Literal]
    events.foreach {
      case TupleEvent(rel, idx) =>
        val rspec = db.schema(rel)
        val t     = db.tuples(rel)(idx)
        body += Literal(rel, Vector.tabulate(rspec.arity)(j => term(t(j), rspec.isConstAttr(j))))
      case SimEvent(src, dst) =>
        body += Literal.sim(term(src, isConst = false), term(dst, isConst = false))
    }
    Clause(head, body.result())
  }
}
