package repro.spark

import scala.util.Random

import org.scalacheck.{Gen, Prop}

import repro.{Oracle, Props, SparkSpec}
import repro.core.constraints.MD
import repro.core.db.{AttrRef, Database, RelSpec, Schema}
import repro.core.sim.{Reference, Similarity}
import repro.dirty.Products
import repro.exp.{ExpScale, Tables}

class SimJoinSpec extends SparkSpec {
  import spark.implicits._

  test("blockKeys lowercases and tokenizes") {
    assert(SimJoin.blockKeys("Star Wars (1977)") == Seq("star", "wars", "1977"))
  }

  test("blockKeys dedupes and handles null/empty") {
    assert(SimJoin.blockKeys("aaa aaa bbb") == Seq("aaa", "bbb"))
    assert(SimJoin.blockKeys(null).isEmpty)
    assert(SimJoin.blockKeys("!!!").isEmpty)
  }

  test("default threshold exceeds the 0.5 floor of the averaged operator") {
    assert(SimJoin.DefaultThreshold > 0.5)
  }

  test("simPairs finds pairs sharing a block and clearing the threshold") {
    val left  = Seq("tavo rizel maku", "bodu fema").toDF("a")
    val right = Seq("tavo rizel maku (1994)", "zzz qqq").toDF("b")
    val got   = SimJoin.simPairs(left, right, 0.5).collect()
    assert(got.length == 1)
    assert(got.head.getString(0) == "tavo rizel maku")
  }

  test("simPairs never compares values without a shared token") {
    val left   = Seq("aaaa xx").toDF("a")
    val right  = Seq("aaaa yy").toDF("b") // shared token "aaaa" → compared
    val right2 = Seq("aaab yy").toDF("b") // no shared token
    assert(SimJoin.simPairs(left, right, 0.0).count() == 1)
    assert(SimJoin.simPairs(left, right2, 0.0).count() == 0)
  }

  test("simPairs scores agree with the Similarity operator") {
    val left  = Seq("tavo rizel").toDF("a")
    val right = Seq("tavo rizel maku").toDF("b")
    val row   = SimJoin.simPairs(left, right, 0.0).collect().head
    assert(math.abs(row.getDouble(2) - Similarity.sim("tavo rizel", "tavo rizel maku")) < 1e-9)
  }

  /** Values of one to four tokens from a small vocabulary, a quarter with a
    * one-letter typo: many shared tokens, repeated values and score ties.
    */
  private def randomDomain(rnd: Random, n: Int): Vector[String] = {
    val vocab = Vector("tavo", "rizel", "maku", "bodu", "Fema", "lira", "part", "ii", "iii", "1994")
    Vector.fill(n) {
      val s = Vector.fill(1 + rnd.nextInt(4))(vocab(rnd.nextInt(vocab.size))).mkString(" ")
      if (rnd.nextInt(4) > 0) s else s.updated(rnd.nextInt(s.length), ('a' + rnd.nextInt(26)).toChar)
    }
  }

  test("pairs equals a brute-force loop over every pair sharing a block key") {
    for (seed <- 1 to 20; threshold <- Seq(0.0, 0.6, 0.8)) {
      val rnd   = new Random(seed)
      val left  = randomDomain(rnd, 25)
      val right = randomDomain(rnd, 25)
      val expected = for {
        a <- left.distinct
        b <- right.distinct
        if SimJoin.blockKeys(a).intersect(SimJoin.blockKeys(b)).nonEmpty
        score = Similarity.sim(a, b)
        if score >= threshold
      } yield SimPair(a, b, score)
      val got = SimJoin.pairs(left, right, threshold)
      assert(got.size == got.toSet.size, s"seed $seed: duplicate pairs")
      assert(got.toSet == expected.toSet, s"seed $seed threshold $threshold")
    }
  }

  test("pairs equals a brute-force loop over product-family titles, scored by the reference DP") {
    // Family titles share long prefixes ("<base> 16 gb" / "<base> 32 gb"), so
    // the kernel reuses and abandons columns on almost every candidate.
    val rows = (0L until 240L).map(Products.row(seed = 7))
    val left = rows.map(_.titleW) ++ rows.take(20).map(_.titleW.toUpperCase)
    val right = rows.map(_.titleA) ++ rows.take(20).map(r => r.titleA.capitalize)
    for (threshold <- Seq(0.6, 0.75, 0.9)) {
      val expected = for {
        a <- left.distinct
        b <- right.distinct
        if SimJoin.blockKeys(a).intersect(SimJoin.blockKeys(b)).nonEmpty
        score = Reference.sim(a, b)
        if score >= threshold
      } yield SimPair(a, b, score)
      assert(expected.nonEmpty)
      assert(SimJoin.pairs(left, right, threshold) == expected, s"threshold $threshold")
    }
  }

  test("topKJoin keeps the k best per value — oracle-checked against DuckDB") {
    // The top-k lists of both directions, with each match's rank, must equal
    // row_number() over the simPairs view of the same join.
    val rnd   = new Random(3)
    val (left, right) = (randomDomain(rnd, 40), randomDomain(rnd, 40))
    val pairs = SimJoin.simPairs(left.toDF("a"), right.toDF("b"), SimJoin.DefaultThreshold)
    val (fwd, bwd) = SimJoin.topKJoin(left, right, 2)
    for ((key, other, lists) <- Seq(("a", "b", fwd), ("b", "a", bwd))) {
      val got = lists.toSeq
        .flatMap { case (v, ms) => ms.zipWithIndex.map { case (m, i) => (v, m.value, m.score, i + 1) } }
        .toDF(key, other, "score", "rk")
      Oracle.assertEquivalent(
        got,
        s"""SELECT $key, $other, CAST(score AS DOUBLE) score, rk FROM (
           |  SELECT $key, $other, score,
           |         row_number() OVER (PARTITION BY $key ORDER BY CAST(score AS DOUBLE) DESC, $other) rk
           |  FROM pairs) WHERE rk <= 2""".stripMargin,
        "pairs" -> pairs,
      )
    }
  }

  test("topKJoin tie-breaks deterministically by the other value") {
    val (x, y, v) = ("tavo rizel x", "tavo rizel y", "tavo rizel")
    assert(Similarity.sim(v, x) == Similarity.sim(v, y))
    for (in <- Seq(Seq(x, y), Seq(y, x))) {
      assert(SimJoin.topKJoin(Seq(v), in, 1)._1 == Map(v -> Vector(SimMatch(x, Similarity.sim(v, x)))))
      assert(SimJoin.topKJoin(in, Seq(v), 1)._2 == Map(v -> Vector(SimMatch(x, Similarity.sim(x, v)))))
    }
  }

  test("the top-k lists do not depend on the order the domains come in") {
    val rnd   = new Random(5)
    val left  = randomDomain(rnd, 40)
    val right = randomDomain(rnd, 40)
    def lists(l: Seq[String], r: Seq[String]) = SimJoin.topKJoin(l, r, 3)
    val base = lists(left, right)
    assert(base._1.nonEmpty && base._2.nonEmpty)
    assert(lists(left.reverse, right.reverse) == base)
    assert(lists(rnd.shuffle(left), rnd.shuffle(right)) == base)
  }

  /** A value of one to three tokens from a vocabulary of mostly four-letter
    * words, sometimes with one letter replaced, or null: equal lengths and
    * shared tokens make many exact score ties, and a small domain repeats
    * values.
    */
  private val tieValue: Gen[String] = {
    val vocab  = Vector("tavo", "rize", "maku", "bodu", "Fema", "lira", "ii", "iv", "1994")
    val tokens = Gen.choose(1, 3).flatMap(Gen.listOfN(_, Gen.oneOf(vocab))).map(_.mkString(" "))
    val typo   = for (s <- tokens; i <- Gen.choose(0, s.length - 1); c <- Gen.oneOf('a', 'e', 'z')) yield s.updated(i, c)
    Gen.frequency(6 -> tokens, 3 -> typo, 1 -> Gen.const(null: String))
  }
  private val tieDomain: Gen[Vector[String]] = Gen.choose(0, 30).flatMap(Gen.listOfN(_, tieValue)).map(_.toVector)

  test("topKJoin equals the sort-based reference on shuffled tie-heavy domains") {
    Props.check(Prop.forAllNoShrink(tieDomain, tieDomain, Gen.oneOf(1, 2, 3, 10), Gen.long) { (left, right, k, seed) =>
      val rnd = new Random(seed)
      SimJoin.topKJoin(rnd.shuffle(left), rnd.shuffle(right), k) == ReferenceTopK.join(left, right, k)
    }, minTests = 300)
  }

  test("buildIndex equals the sort-based reference on every tiny task's MD pairs") {
    val tasks = Seq(
      Tables.moviesTask(spark, ExpScale.tiny, nMds = 3, p = 0.0),
      Tables.productsTask(spark, ExpScale.tiny, p = 0.0),
      Tables.papersTask(spark, ExpScale.tiny, p = 0.0),
    )
    for (t <- tasks) {
      val db    = Database.fromFrames(t.spec.schema, t.frames)
      val pairs = t.spec.mds.flatMap(_.pairs)
      val ps    = pairs.map { case (a, b) => SimJoin.pairs(db.domain(a), db.domain(b), SimJoin.DefaultThreshold) }
      for (k <- Seq(1, 2, 5, 10)) {
        val idx = SimJoin.buildIndex(spark, db, t.spec.mds, k)
        for (((refA, refB), p) <- pairs.zip(ps); (from, to, key, other) <- Seq(
               (refA, refB, (q: SimPair) => q.a, (q: SimPair) => q.b),
               (refB, refA, (q: SimPair) => q.b, (q: SimPair) => q.a))) {
          val expected = ReferenceTopK(p, key, other, k)
          assert(expected.nonEmpty, s"${t.name} $from")
          for (v <- db.domain(from))
            assert(idx.matches(from, to, v) == expected.getOrElse(v, Vector.empty), s"${t.name} k=$k $from>$to '$v'")
        }
      }
    }
  }

  private val schema = Schema(Vector(
    RelSpec("r1", Vector("id", "name"), Set.empty),
    RelSpec("r2", Vector("id", "name"), Set.empty),
  ))
  private val md = MD(AttrRef("r1", "name"), AttrRef("r2", "name"))

  private def mkDb(names1: Seq[String], names2: Seq[String]): Database =
    Database.fromFrames(schema, Map(
      "r1" -> names1.zipWithIndex.map { case (n, i) => (s"a$i", n) }.toDF("id", "name"),
      "r2" -> names2.zipWithIndex.map { case (n, i) => (s"b$i", n) }.toDF("id", "name"),
    ))

  test("buildIndex produces both directions") {
    val db  = mkDb(Seq("tavo rizel maku"), Seq("tavo rizel maku (1994)"))
    val idx = SimJoin.buildIndex(spark, db, Vector(md), km = 5)
    val fwd = idx.matches(AttrRef("r1", "name"), AttrRef("r2", "name"), "tavo rizel maku")
    val bwd = idx.matches(AttrRef("r2", "name"), AttrRef("r1", "name"), "tavo rizel maku (1994)")
    assert(fwd.map(_.value) == Vector("tavo rizel maku (1994)"))
    assert(bwd.map(_.value) == Vector("tavo rizel maku"))
  }

  test("buildIndex truncates to k_m and sorts by score") {
    val sibs = (2 to 5).map(i => s"tavo rizel maku part $i") :+ "tavo rizel maku"
    val db   = mkDb(Seq("tavo rizel maku"), sibs)
    val km2  = SimJoin.buildIndex(spark, db, Vector(md), km = 2)
    val km5  = SimJoin.buildIndex(spark, db, Vector(md), km = 5)
    val m2   = km2.matches(AttrRef("r1", "name"), AttrRef("r2", "name"), "tavo rizel maku")
    val m5   = km5.matches(AttrRef("r1", "name"), AttrRef("r2", "name"), "tavo rizel maku")
    assert(m2.size == 2 && m5.size == 5)
    assert(m2.head.value == "tavo rizel maku", "the exact match must rank first")
    assert(m5.map(_.score) == m5.map(_.score).sorted.reverse)
  }

  test("buildIndex respects the similarity threshold") {
    // The pair shares the block key "tavo", so the join scores it, and the
    // score falls below the threshold.
    val (a, b) = ("tavo rizel maku", "tavo qqqqqqqqqqqqqqqqqqqqqqqqqqqq")
    val scored = SimJoin.pairs(Seq(a), Seq(b), 0.0)
    assert(scored.map(p => (p.a, p.b)) == Vector((a, b)))
    assert(scored.head.score < SimJoin.DefaultThreshold, s"score ${scored.head.score}")
    assert(SimJoin.pairs(Seq(a), Seq(b), SimJoin.DefaultThreshold).isEmpty)
    val idx = SimJoin.buildIndex(spark, mkDb(Seq(a), Seq(b)), Vector(md), km = 5)
    assert(idx.matches(AttrRef("r1", "name"), AttrRef("r2", "name"), a).isEmpty)
  }

  test("empty SimIndex returns no matches") {
    assert(SimIndex.empty.matches(AttrRef("r1", "name"), AttrRef("r2", "name"), "x").isEmpty)
  }

  test("buildIndex runs no Spark job") {
    val db = mkDb(Seq("tavo rizel maku", "bodu fema"), Seq("tavo rizel maku (1994)", "bodu fema x"))
    val sc = spark.sparkContext
    // Job ids are global and consecutive, so no job ran between two marker
    // jobs when their ids are adjacent. The status tracker learns of a job
    // through the listener bus, asynchronously, hence the wait.
    def markerJob(group: String): Int = {
      sc.setJobGroup(group, group)
      try sc.parallelize(Seq(1), 1).count()
      finally sc.clearJobGroup()
      val deadline = System.nanoTime() + 10000000000L
      while (sc.statusTracker.getJobIdsForGroup(group).isEmpty && System.nanoTime() < deadline)
        Thread.sleep(10)
      sc.statusTracker.getJobIdsForGroup(group).head
    }
    val before = markerJob("simjoin-before")
    val idx    = SimJoin.buildIndex(spark, db, Vector(md), km = 5)
    val after  = markerJob("simjoin-after")
    assert(idx.matches(AttrRef("r1", "name"), AttrRef("r2", "name"), "bodu fema").nonEmpty)
    assert(after == before + 1, s"${after - before - 1} Spark job(s) ran inside buildIndex")
  }
}
