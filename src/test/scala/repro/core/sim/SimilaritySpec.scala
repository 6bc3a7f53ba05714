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

  test("SWG equals the full-matrix reference DP exactly (property)") {
    val mixed: Gen[String] =
      Gen.choose(0, 24).flatMap(n => Gen.listOfN(n, Gen.oneOf('a', 'b', 'c', 'A', 'B', ' ', '1')).map(_.mkString))
    Props.check(Prop.forAll(Gen.oneOf(mixed, word), Gen.oneOf(mixed, word)) { (a, b) =>
      smithWatermanGotoh(a, b) == Reference.swg(a, b) && sim(a, b) == Reference.sim(a, b)
    }, minTests = 2000)
  }

  /** Right values around a stem, in lowercase order as the join feeds them:
    * the stem's prefixes with new tails, so neighbours share long prefixes,
    * and the stem in upper and lower case (equal lowercase forms). Then, out
    * of order, a value that is a prefix of the one before it, and the empty
    * string.
    */
  private val kernelCase: Gen[(String, Vector[String], Double)] = {
    val ch   = Gen.oneOf('a', 'b', 'c', 'A', 'B', ' ', 'x')
    val str  = (lo: Int, hi: Int) => Gen.choose(lo, hi).flatMap(n => Gen.listOfN(n, ch).map(_.mkString))
    for {
      stem  <- str(1, 20)
      tails <- Gen.listOfN(10, Gen.zip(Gen.choose(0, stem.length), str(0, 8)))
      cut   <- Gen.choose(0, stem.length)
      a     <- Gen.oneOf(Gen.const(stem), str(0, 20), Gen.zip(Gen.choose(0, stem.length), str(0, 6)).map {
                 case (k, t) => stem.take(k) + t
               })
      thr   <- Gen.choose(0.5, 1.0)
    } yield {
      val run = (tails.map { case (k, t) => stem.take(k) + t } :+ stem.toUpperCase :+ stem).toVector.sortBy(_.toLowerCase)
      (a, run :+ run.last.take(cut) :+ "", thr)
    }
  }

  test("one Aligner over a sorted run agrees with the reference DP at every threshold (property)") {
    Props.check(Prop.forAll(kernelCase) { case (a, run, thr) =>
      val al = new Aligner(a)
      run.forall { b =>
        val got = al.sim(b, b.toLowerCase, thr)
        val ref = Reference.sim(a, b)
        if (ref >= thr) got == ref else got < thr
      }
    }, minTests = 3000)
  }

  test("an Aligner without a threshold scores every value of a run exactly") {
    val a  = "Tavo Rizel Maku part ii"
    val al = new Aligner(a)
    val run = Vector("tavo", "tavo rizel", "Tavo Rizel Maku part iii", "tavo rizel maku part ii", "tavo rizel moku", "tovo", "")
    for (b <- run) assert(al.sim(b, b.toLowerCase, Double.NegativeInfinity) == Reference.sim(a, b), b)
  }

  test("an Aligner reports a pair below its threshold as Below") {
    assert(new Aligner("tavo rizel").sim("bodu fema", "bodu fema", 0.9) == Below)
    assert(new Aligner("").sim("bodu", "bodu", 0.5) == Below)
  }
}
