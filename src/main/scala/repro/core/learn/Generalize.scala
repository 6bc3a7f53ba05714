package repro.core.learn

import java.util.Arrays

import repro.core.logic.{Clause, Literal}

/** ProGolem-style asymmetric relative minimal generalization (ARMG), paper
  * Sec. 4.2: scan the (ordered) body of a clause, maintaining the frontier of
  * substitutions into the target example's ground bottom-clause; a literal
  * that empties the frontier is a *blocking literal* and is removed. The
  * result θ-subsumes the input (literal dropping only) and covers the target
  * example by construction; head-connectivity is restored afterwards. The
  * CFD violations of the result are those of the input among the literals
  * it keeps, so its repaired versions generalize those of the input
  * (Theorem 4.12).
  */
object Generalize {

  /** The frontier holds at most `maxFrontier` distinct substitutions: the
    * first ones found, extending the previous frontier in its order.
    */
  def armg(c: Clause, g: GIndex, maxFrontier: Int): Clause = {
    val cc = c.compiled
    val m  = new Matcher(cc, g)
    if (!m.unify(cc.head, g.head)) return c // heads incompatible — cannot generalize toward this example
    val f    = new Frontier(cc.nVars, maxFrontier, m.theta)
    val kept = Vector.newBuilder[Literal]
    for (i <- c.body.indices) {
      var r = 0
      while (r < f.size && !f.full) {
        f.load(r, m.theta)
        // An extension binds only slots unbound in row r, each on the trail
        // above `mark`: its hash is row r's plus their terms.
        val mark = m.mark
        val base = f.hash(r)
        m.extend(i) {
          var h = base
          var t = mark
          while (t < m.mark) { val s = m.trailed(t); h += Frontier.term(s, m.theta(s)); t += 1 }
          f.add(m.theta, h)
          f.full
        }
        r += 1
      }
      // An empty extension marks a blocking literal: drop it, keep the frontier.
      if (f.advance()) kept += c.body(i)
    }
    Clause(c.head, kept.result()).normalized
  }
}

/** ARMG's frontier: the current substitutions and the next ones being built,
  * each a row of `n` slots in one of two flat buffers of `cap` rows, swapped
  * after every step. The next frontier keeps the first `cap` distinct rows
  * added; an open-addressing table of row numbers finds duplicates by
  * content, unbound (-1) slots included. A row's hash is the sum of
  * [[Frontier.term]] over its bound slots, so the caller can extend its
  * parent row's hash by the slots it bound.
  */
private final class Frontier(n: Int, cap: Int, start: Array[Int]) {
  private var cur      = Arrays.copyOf(start, cap * n)
  private var next     = new Array[Int](cap * n)
  private var curHash  = new Array[Int](cap)
  private var nextHash = new Array[Int](cap)
  private val slots    = new Array[Int](cap) // table slot of each next row
  private val table    = new Array[Int](Integer.highestOneBit(math.max(cap, 1)) << 2) // next row + 1; 0 is empty
  private var nNext    = 0

  curHash(0) = {
    var h = 0
    var k = 0
    while (k < n) { if (start(k) >= 0) h += Frontier.term(k, start(k)); k += 1 }
    h
  }

  /** Rows in the current frontier. */
  var size: Int = 1

  /** The next frontier has `cap` rows. */
  def full: Boolean = nNext >= cap

  /** Copy current row `r` into `theta`. */
  def load(r: Int, theta: Array[Int]): Unit = System.arraycopy(cur, r * n, theta, 0, n)

  /** Hash of current row `r`. */
  def hash(r: Int): Int = curHash(r)

  /** Add `theta`, whose hash is `h`, to the next frontier unless it holds an
    * equal row.
    */
  def add(theta: Array[Int], h: Int): Unit = {
    val mask = table.length - 1
    var s    = (h ^ (h >>> 16)) & mask
    while (table(s) != 0) {
      val r = table(s) - 1
      if (nextHash(r) == h && Arrays.equals(next, r * n, r * n + n, theta, 0, n)) return
      s = (s + 1) & mask
    }
    System.arraycopy(theta, 0, next, nNext * n, n)
    nextHash(nNext) = h
    slots(nNext) = s
    table(s) = nNext + 1
    nNext += 1
  }

  /** End a step: the next frontier, when it has a row, becomes the current
    * one. Returns whether it had a row.
    */
  def advance(): Boolean = {
    var r = 0
    while (r < nNext) { table(slots(r)) = 0; r += 1 }
    val any = nNext > 0
    if (any) {
      val t = cur; cur = next; next = t
      val th = curHash; curHash = nextHash; nextHash = th
      size = nNext
      nNext = 0
    }
    any
  }
}

private object Frontier {

  /** Hash term of slot `slot` bound to target term `value`: the 64-bit
    * MurmurHash3 finalizer of the pair, cut to 32 bits.
    */
  def term(slot: Int, value: Int): Int = {
    var x = (slot.toLong << 32) | (value & 0xffffffffL)
    x ^= x >>> 33
    x *= 0xff51afd7ed558ccdL
    x ^= x >>> 33
    x *= 0xc4ceb9fe1a85ec53L
    x ^= x >>> 33
    x.toInt
  }
}
