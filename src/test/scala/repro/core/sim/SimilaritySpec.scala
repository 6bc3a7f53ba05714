package repro.core.sim

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.Props

class SimilaritySpec extends AnyFunSuite {
  import Similarity._

  private val word: Gen[String] =
    Gen.choose(1, 20).flatMap(n => Gen.listOfN(n, Gen.alphaLowerChar).map(_.mkString))

  test("SWG of identical strings is 1") {
    assert(smithWatermanGotoh("star wars", "star wars") == 1.0)
  }

  test("SWG is case-insensitive") {
    assert(smithWatermanGotoh("Star Wars", "star wars") == 1.0)
  }

  test("SWG of fully disjoint alphabets is 0") {
    assert(smithWatermanGotoh("aaaa", "bbbb") == 0.0)
  }

  test("SWG with empty string is 0") {
    assert(smithWatermanGotoh("", "abc") == 0.0)
    assert(smithWatermanGotoh("abc", "") == 0.0)
  }

  test("SWG substring scores 1 (local alignment)") {
    assert(smithWatermanGotoh("star wars episode iv", "star wars") == 1.0)
  }

  test("SWG is symmetric (property)") {
    Props.check(Prop.forAll(word, word) { (a, b) =>
      math.abs(smithWatermanGotoh(a, b) - smithWatermanGotoh(b, a)) < 1e-9
    })
  }

  test("SWG stays in [0,1] (property)") {
    Props.check(Prop.forAll(word, word) { (a, b) =>
      val s = smithWatermanGotoh(a, b)
      s >= 0.0 && s <= 1.0
    })
  }

  test("lengthSim of equal lengths is 1") {
    assert(lengthSim("abcd", "wxyz") == 1.0)
  }

  test("lengthSim halves for double length") {
    assert(lengthSim("ab", "abcd") == 0.5)
  }

  test("lengthSim with empty string is 0") {
    assert(lengthSim("", "abc") == 0.0)
  }

  test("lengthSim is symmetric (property)") {
    Props.check(Prop.forAll(word, word)((a, b) => lengthSim(a, b) == lengthSim(b, a)))
  }

  test("sim is the average of SWG and Length") {
    val a = "star wars"; val b = "star wars (1977)"
    assert(math.abs(sim(a, b) - (smithWatermanGotoh(a, b) + lengthSim(a, b)) / 2) < 1e-9)
  }

  test("sim of identical strings is 1") {
    assert(sim("superbad", "superbad") == 1.0)
  }

  test("sim handles nulls") {
    assert(sim(null, "x") == 0.0)
    assert(sim("x", null) == 0.0)
  }

  test("sim stays in [0,1] (property)") {
    Props.check(Prop.forAll(word, word) { (a, b) =>
      val s = sim(a, b)
      s >= 0.0 && s <= 1.0
    })
  }

  test("a near-duplicate outranks an unrelated string") {
    val base = "superbad the movie"
    assert(sim(base, "superbad the movie (2007)") > sim(base, "zoolander picture show"))
  }

  test("a typo'd variant outranks an unrelated string") {
    val base = "tavo rizel maku"
    assert(sim(base, "tavo rizl maku") > sim(base, "bodu fema lira"))
  }

  test("dropping a suffix keeps high similarity") {
    assert(sim("tavo rizel maku part ii", "tavo rizel maku") > 0.6)
  }

  test("sibling variant is more similar than a different family") {
    val a = "tavo rizel maku part ii"
    assert(sim(a, "tavo rizel maku part iii") > sim(a, "bodu fema lira part ii"))
  }

  test("SWG gap penalty: interleaved matches score below contiguous ones") {
    val contiguous  = smithWatermanGotoh("abcdef", "abcdef")
    val interleaved = smithWatermanGotoh("abcdef", "axbxcxdxexf")
    assert(interleaved < contiguous)
    assert(interleaved > 0.0)
  }

  /** The SWG recurrence as first written: a full (n+1)×(m+1) matrix of
    * doubles, match +1, mismatch -1, gap -0.5.
    */
  private def swgReference(a: String, b: String): Double = {
    if (a.isEmpty || b.isEmpty) return 0.0
    val s = a.toLowerCase; val t = b.toLowerCase
    val h = Array.ofDim[Double](s.length + 1, t.length + 1)
    var best = 0.0
    for (i <- 1 to s.length; j <- 1 to t.length) {
      val sub = if (s(i - 1) == t(j - 1)) 1.0 else -1.0
      h(i)(j) = math.max(0.0, math.max(h(i - 1)(j - 1) + sub, math.max(h(i - 1)(j) - 0.5, h(i)(j - 1) - 0.5)))
      best = math.max(best, h(i)(j))
    }
    best / math.min(s.length, t.length).toDouble
  }

  test("SWG equals the full-matrix reference DP exactly (property)") {
    val mixed: Gen[String] =
      Gen.choose(0, 24).flatMap(n => Gen.listOfN(n, Gen.oneOf('a', 'b', 'c', 'A', 'B', ' ', '1')).map(_.mkString))
    Props.check(Prop.forAll(Gen.oneOf(mixed, word), Gen.oneOf(mixed, word)) { (a, b) =>
      smithWatermanGotoh(a, b) == swgReference(a, b) &&
      sim(a, b) == (swgReference(a, b) + lengthSim(a, b)) / 2.0
    }, minTests = 2000)
  }
}
