package repro.core.learn

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicInteger

import scala.collection.mutable

import repro.core.logic._

/** Process-wide predicate ids. The schema bounds the predicate names, so the
  * table stays small; [[Preds.Sim]] is the similarity built-in.
  */
private[learn] object Preds {
  private val ids  = new ConcurrentHashMap[String, Integer]()
  private val next = new AtomicInteger(0)

  def id(pred: String): Int = ids.computeIfAbsent(pred, _ => next.getAndIncrement())

  val Sim: Int = id(Literal.Sim)
}

/** Indexed view of a (ground) clause used as the target of θ-subsumption
  * tests and ARMG. Built once per ground bottom-clause and reused across all
  * candidate clauses.
  *
  * Every distinct term of the clause gets a local int id, in order of first
  * appearance (head, then body). Target terms are opaque: a `Var` here (a
  * null value of the bottom clause) is a term like any constant, equal only
  * to itself.
  */
final class GIndex(val clause: Clause) {
  private val termIds = mutable.HashMap.empty[Term, Int]
  private def termId(t: Term): Int = termIds.getOrElseUpdate(t, termIds.size)

  /** Argument ids of the head literal. */
  val head: Array[Int] = clause.head.args.iterator.map(termId).toArray

  /** Argument ids of every body literal, similarity facts in both
    * orientations (the similarity operator is symmetric): each fact is
    * followed by its reverse.
    */
  val lits: Array[Array[Int]] = clause.body.iterator.flatMap { l =>
    val as = l.args.iterator.map(termId).toArray
    if (l.isSim) Iterator(as, Array(as(1), as(0))) else Iterator.single(as)
  }.toArray

  /** Number of distinct terms; ids at or above it match nothing. */
  val nTerms: Int = termIds.size

  private val litPreds: Array[Int] = clause.body.iterator.flatMap { l =>
    val p = Preds.id(l.pred)
    if (l.isSim) Iterator(p, p) else Iterator.single(p)
  }.toArray

  /** pred id → indexes into `lits`, in body order. */
  private val byPred: Array[Array[Int]] = {
    val bs = Array.fill(if (litPreds.isEmpty) 0 else litPreds.max + 1)(new mutable.ArrayBuilder.ofInt)
    litPreds.indices.foreach(i => bs(litPreds(i)) += i)
    bs.map(_.result())
  }

  /** (pred id, position, term id) → indexes into `lits`, in body order: an
    * open-addressing table with linear probing, the packed key of each slot
    * in `keys` (-1 when empty) and its literals at the same slot of `found`.
    */
  private val (keys, found) = {
    val m = mutable.LongMap.empty[mutable.ArrayBuilder.ofInt]
    for (i <- lits.indices; pos <- lits(i).indices)
      m.getOrElseUpdate(GIndex.key(litPreds(i), pos, lits(i)(pos)), new mutable.ArrayBuilder.ofInt) += i
    val mask = (Integer.highestOneBit(math.max(m.size, 1)) << 2) - 1
    val ks   = Array.fill(mask + 1)(-1L)
    val fs   = new Array[Array[Int]](mask + 1)
    m.foreachEntry { (k, b) =>
      var s = GIndex.slot(k) & mask
      while (ks(s) != -1L) s = (s + 1) & mask
      ks(s) = k
      fs(s) = b.result()
    }
    (ks, fs)
  }

  /** Id of constant `c`, or -1 when the clause does not hold it. */
  private[learn] def constId(c: Const): Int = termIds.getOrElse(c, -1)

  /** Every literal of predicate `pred`. */
  private[learn] def all(pred: Int): Array[Int] = if (pred < byPred.length) byPred(pred) else GIndex.Empty

  /** Literals of predicate `pred` with term `term` at position `pos`. */
  private[learn] def narrowed(pred: Int, pos: Int, term: Int): Array[Int] = {
    val k    = GIndex.key(pred, pos, term)
    val mask = keys.length - 1
    var s    = GIndex.slot(k) & mask
    while (keys(s) != k && keys(s) != -1L) s = (s + 1) & mask
    if (keys(s) == k) found(s) else GIndex.Empty
  }
}

private object GIndex {
  val Empty: Array[Int] = Array.emptyIntArray

  /** A non-negative key: term ids are never negative. */
  def key(pred: Int, pos: Int, term: Int): Long =
    (pred.toLong << 40) | (pos.toLong << 32) | (term.toLong & 0xffffffffL)

  /** Table slot of a key, before masking. */
  def slot(k: Long): Int = ((k * 0x9e3779b97f4a7c15L) >>> 32).toInt
}

/** A candidate clause compiled for θ-subsumption and ARMG, once per clause
  * (see `Clause.compiled`).
  *
  * An argument code `k >= 0` is variable slot `k`; `k < 0` is constant
  * `consts(-k - 1)`. Slots and constants are numbered in order of first
  * appearance.
  */
final class CompiledClause(c: Clause) {
  private val slots   = mutable.HashMap.empty[Var, Int]
  private val constIx = mutable.LinkedHashMap.empty[Const, Int]
  private def code(t: Term): Int = t match {
    case v: Var   => slots.getOrElseUpdate(v, slots.size)
    case k: Const => -constIx.getOrElseUpdate(k, constIx.size) - 1
  }

  val head: Array[Int]        = c.head.args.iterator.map(code).toArray
  val args: Array[Array[Int]] = c.body.iterator.map(_.args.iterator.map(code).toArray).toArray
  val preds: Array[Int]       = c.body.iterator.map(l => Preds.id(l.pred)).toArray
  val nVars: Int              = slots.size
  val consts: Array[Const]    = constIx.keysIterator.toArray

  /** slot → its occurrences in the body, each `(literal << 16) | position`,
    * in body order.
    */
  val occ: Array[Array[Int]] = {
    val bs = Array.fill(nVars)(new mutable.ArrayBuilder.ofInt)
    for (i <- args.indices; pos <- args(i).indices if args(i)(pos) >= 0) bs(args(i)(pos)) += (i << 16) | pos
    bs.map(_.result())
  }
}

/** Backtracking matcher of one compiled clause against one target: a mutable
  * substitution (slot → target term id, -1 when unbound) with a trail for
  * undo. After [[trackEstimates]], it also keeps every body literal's
  * [[estimate]] current as slots are bound and unbound.
  */
private final class Matcher(cc: CompiledClause, g: GIndex) {
  /** Target id of each clause constant; a constant absent from the target
    * gets a fresh id that matches nothing.
    */
  private val constIds: Array[Int] = {
    var fresh = g.nTerms
    cc.consts.map { k =>
      val id = g.constId(k)
      if (id >= 0) id else { fresh += 1; fresh - 1 }
    }
  }

  val theta: Array[Int]         = Array.fill(cc.nVars)(-1)
  private val trail: Array[Int] = new Array[Int](cc.nVars)
  private var top               = 0

  /** Each body literal's estimate, or null while estimates are not tracked.
    * Binding a slot can only lower the estimates of the literals that hold
    * it; each lowered value is logged (`estLit`, `estOld`) and restored when
    * the binding is undone, back to `estMark` of its trail position.
    */
  private var est: Array[Int]     = null
  private var estLit: Array[Int]  = null
  private var estOld: Array[Int]  = null
  private var estMark: Array[Int] = null
  private var estTop              = 0

  /** Number of bindings on the trail. */
  def mark: Int = top

  /** Slot bound at trail position `t`. */
  def trailed(t: Int): Int = trail(t)

  /** Target id an argument code resolves to, or -1 for an unbound slot. */
  private def value(code: Int): Int = if (code >= 0) theta(code) else constIds(-code - 1)

  private def bind(slot: Int, term: Int): Unit = {
    theta(slot) = term
    trail(top) = slot
    if (est != null) { estMark(top) = estTop; lower(slot, term) }
    top += 1
  }

  private def undo(mark: Int): Unit =
    while (top > mark) {
      top -= 1
      if (est != null) {
        val m = estMark(top)
        while (estTop > m) { estTop -= 1; est(estLit(estTop)) = estOld(estTop) }
      }
      theta(trail(top)) = -1
    }

  /** Update the estimates of the literals holding `slot`, just bound to
    * `term`: a similarity literal with a bound side estimates 1; another
    * literal takes the smaller of its estimate and the number of its
    * predicate's facts with `term` at that position.
    */
  private def lower(slot: Int, term: Int): Unit = {
    val os = cc.occ(slot)
    var k  = 0
    while (k < os.length) {
      val i   = os(k) >>> 16
      val old = est(i)
      val e =
        if (cc.preds(i) == Preds.Sim) 1
        else math.min(old, g.narrowed(cc.preds(i), os(k) & 0xffff, term).length)
      if (e != old) { estLit(estTop) = i; estOld(estTop) = old; estTop += 1; est(i) = e }
      k += 1
    }
  }

  /** Start keeping every body literal's [[estimate]] current, from the
    * bindings made so far; returns the array the estimates are kept in.
    */
  def trackEstimates(): Array[Int] = {
    val e    = Array.tabulate(cc.args.length)(estimate)
    val nOcc = cc.occ.iterator.map(_.length).sum
    estLit = new Array[Int](nOcc)
    estOld = new Array[Int](nOcc)
    estMark = new Array[Int](cc.nVars)
    est = e
    e
  }

  /** Unify argument codes with target ids; on failure the bindings made
    * here are undone.
    */
  def unify(codes: Array[Int], ids: Array[Int]): Boolean = {
    if (codes.length != ids.length) return false
    val mark = top
    var i    = 0
    while (i < codes.length) {
      val k = codes(i)
      val v = value(k)
      if (v < 0) bind(k, ids(i))
      else if (v != ids(i)) { undo(mark); return false }
      i += 1
    }
    true
  }

  /** Target literals that body literal `i` can map onto: those of its
    * predicate, narrowed by the bound position with the fewest (ties to the
    * earlier position).
    */
  private def candidates(i: Int): Array[Int] = {
    val codes            = cc.args(i)
    var best: Array[Int] = null
    var pos = 0
    while (pos < codes.length) {
      val v = value(codes(pos))
      if (v >= 0) {
        val c = g.narrowed(cc.preds(i), pos, v)
        if (best == null || c.length < best.length) best = c
      }
      pos += 1
    }
    if (best == null) g.all(cc.preds(i)) else best
  }

  /** Rough candidate count used for literal selection. `Int.MaxValue` marks
    * a doubly-unbound similarity literal over a target without similarity
    * facts: it waits until another literal binds one of its sides.
    */
  def estimate(i: Int): Int =
    if (cc.preds(i) == Preds.Sim) {
      if (value(cc.args(i)(0)) < 0 && value(cc.args(i)(1)) < 0) {
        val n = g.all(Preds.Sim).length
        if (n > 0) n else Int.MaxValue
      } else 1
    } else candidates(i).length

  /** Body literal `i` is a similarity literal between two distinct unbound
    * variables.
    */
  def openSim(i: Int): Boolean = cc.preds(i) == Preds.Sim && {
    val codes = cc.args(i)
    codes(0) != codes(1) && value(codes(0)) < 0 && value(codes(1)) < 0
  }

  /** Enumerate the extensions of `theta` that satisfy body literal `i`, in
    * order, calling `next` on each with the extension in place; stops at
    * the first `true`, which it returns. `theta` is restored on return.
    *
    * A similarity literal maps onto the target's facts first; then it holds
    * reflexively when both sides resolve to the same term (exactly equal
    * values are trivially similar), binding one unbound side to the other's
    * term. Two unbound variables are never aliased.
    */
  def extend(i: Int)(next: => Boolean): Boolean = {
    val codes = cc.args(i)
    val cands = candidates(i)
    val mark  = top
    var k     = 0
    while (k < cands.length) {
      if (unify(codes, g.lits(cands(k)))) {
        if (next) { undo(mark); return true }
        undo(mark)
      }
      k += 1
    }
    if (cc.preds(i) == Preds.Sim) {
      val ka  = codes(0)
      val kb  = codes(1)
      val a   = value(ka)
      val b   = value(kb)
      val same = if (a < 0) b < 0 && ka == kb else a == b
      val hit =
        if (same) next
        else if (a < 0 && b >= 0) { bind(ka, b); next }
        else if (b < 0 && a >= 0) { bind(kb, a); next }
        else false
      undo(mark)
      hit
    } else false
  }
}

/** θ-subsumption `C ⊑θ G` by backtracking search, with most-constrained-first
  * literal selection. `G` is typically a ground bottom-clause; the test is
  * exactly conjunctive-query evaluation over `G`'s canonical instance.
  *
  * Similarity literals map onto `G`'s similarity facts in either
  * orientation, or are reflexively satisfied when both sides resolve to the
  * same term (exactly equal values are trivially similar).
  */
object Subsume {

  /** Does `c` θ-subsume `g.clause`? Head arguments are unified first. The
    * search gives up, answering false, after `nodeCap` search nodes.
    */
  def subsumes(c: Clause, g: GIndex, nodeCap: Int): Boolean = {
    val cc = c.compiled
    val m  = new Matcher(cc, g)
    if (!m.unify(cc.head, g.head)) return false
    val n        = cc.args.length
    val ests     = m.trackEstimates()
    val done     = new Array[Boolean](n)
    val deferred = new Array[Boolean](n)
    var nodes    = 0
    def solve(remaining: Int): Boolean = {
      if (remaining == 0) return true
      nodes += 1
      if (nodes > nodeCap) return false
      // Most-constrained-first selection; ties go to the earlier literal.
      var best    = -1
      var bestEst = 0
      var j       = 0
      while (j < n) {
        if (!done(j)) {
          val est = if (deferred(j) && m.openSim(j)) Int.MaxValue else ests(j)
          if (best < 0 || est < bestEst) { best = j; bestEst = est }
        }
        j += 1
      }
      // Only doubly-unbound similarity literals wait (the target has no
      // similarity facts, or they were set aside below): they hold by giving
      // all their variables one value.
      if (bestEst == Int.MaxValue) return true
      done(best) = true
      var hit = m.extend(best)(solve(remaining - 1))
      done(best) = false
      // A similarity literal between two unbound variables can also hold
      // with both sides given one value that is in no fact. When no fact
      // leads to a solution, set it aside until a side is bound.
      if (!hit && m.openSim(best)) {
        deferred(best) = true
        hit = solve(remaining)
        deferred(best) = false
      }
      hit
    }
    solve(n)
  }
}
