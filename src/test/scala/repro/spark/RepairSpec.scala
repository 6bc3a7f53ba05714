package repro.spark

import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.{Frames, Oracle, SparkSpec, Violations}
import repro.core.constraints.CFD
import repro.core.db.{Database, RelSpec, Schema}
import repro.dirty.{Movies, Papers, Products}
import repro.exp.{ExpScale, Tables}

class RepairSpec extends SparkSpec {
  import spark.implicits._

  private val fd = CFD.fd("rating", Vector("id"), "rating")

  /** A database of one relation `name(attrs)` holding `rows` in order. */
  private def db(name: String, attrs: Vector[String], rows: Seq[String]*): Database =
    new Database(Schema(Vector(RelSpec(name, attrs, Set.empty))), Map(name -> rows.map(_.toArray).toVector))

  private def rows(d: Database, rel: String): Vector[Seq[String]] = d.tuples(rel).map(_.toSeq).toVector

  private def ratings(rs: (String, String)*): Database =
    db("rating", Vector("id", "rating"), rs.map { case (a, b) => Seq(a, b) }: _*)

  test("repairOne unifies conflicting RHS values to one of them") {
    val out = rows(Repair.repair(ratings(("o1", "R"), ("o1", "PG"), ("o2", "G")), Vector(fd)), "rating")
    assert(out.count(_(0) == "o1") == 1, "conflicting duplicates must collapse")
    assert(Set("R", "PG").contains(out.find(_(0) == "o1").get(1)))
    assert(out.contains(Seq("o2", "G")))
  }

  test("repairOne leaves violation-free relations unchanged") {
    val d = ratings(("o1", "R"), ("o2", "PG"))
    assert(Repair.repair(d, Vector(fd)) eq d)
  }

  test("repairOne picks the canonical value by hash order deterministically") {
    // Spark SQL's own abs(hash(·)) decides, whatever order the tuples come in.
    val Array(hR, hPG) = spark.sql("SELECT abs(hash('R')), abs(hash('PG'))").head().toSeq.toArray.map(_.asInstanceOf[Int])
    val want = if (hR < hPG) "R" else "PG"
    val a = rows(Repair.repair(ratings(("o1", "R"), ("o1", "PG")), Vector(fd)), "rating")
    val b = rows(Repair.repair(ratings(("o1", "PG"), ("o1", "R")), Vector(fd)), "rating")
    assert(a == Vector(Seq("o1", want)) && b == a)
  }

  test("repaired relation has no remaining violations") {
    val d   = ratings(("o1", "R"), ("o1", "PG"), ("o1", "G"), ("o2", "R"), ("o2", "PG"))
    val out = Repair.repair(d, Vector(fd))
    assert(Violations.count(Frames.of(spark, out)("rating"), fd) == 0)
  }

  test("constant-RHS pattern repairs to the pattern constant") {
    val cfd = CFD("rating", Vector("id"), "rating", Vector(None), Some("R"))
    val out = rows(Repair.repair(ratings(("o1", "PG"), ("o2", "R")), Vector(cfd)), "rating")
    assert(out == Vector(Seq("o1", "R"), Seq("o2", "R")))
  }

  test("constant-LHS pattern limits the repair scope") {
    // (lang=English → country unified); French group stays conflicting.
    val cfd = CFD("loc", Vector("title", "lang"), "country", Vector(None, Some("en")), None)
    val d = db("loc", Vector("title", "lang", "country"),
      Seq("Bait", "en", "USA"), Seq("Bait", "en", "Ireland"),
      Seq("Hook", "fr", "USA"), Seq("Hook", "fr", "Ireland"))
    val out = rows(Repair.repair(d, Vector(cfd)), "loc")
    assert(out.count(_(0) == "Bait") == 1)
    assert(out.count(_(0) == "Hook") == 2)
  }

  test("violationCount counts tuples in conflicting groups — oracle-checked") {
    val df = Seq(("o1", "R"), ("o1", "PG"), ("o2", "G"), ("o3", "R"), ("o3", "R")).toDF("id", "rating")
    val got = Seq(Violations.count(df, fd)).toDF("violations")
      .select(col("violations").cast("string").as("violations"))
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(count(*) AS VARCHAR) violations FROM rating r
        |WHERE id IN (SELECT id FROM rating GROUP BY id HAVING count(DISTINCT rating) > 1)""".stripMargin,
      "rating" -> df,
    )
  }

  test("repairAll repairs every CFD over its relation") {
    val schema = Schema(Vector(
      RelSpec("rating", Vector("id", "rating"), Set.empty),
      RelSpec("movies", Vector("id", "title"), Set.empty),
    ))
    val d = new Database(schema, Map(
      "rating" -> Vector(Array("o1", "R"), Array("o1", "PG")),
      "movies" -> Vector(Array("m1", "t1"), Array("m1", "t2")),
    ))
    val cfds = Vector(fd, CFD.fd("movies", Vector("id"), "title"))
    val out  = Frames.of(spark, Repair.repair(d, cfds))
    assert(Violations.count(out("rating"), cfds(0)) == 0)
    assert(Violations.count(out("movies"), cfds(1)) == 0)
    assert(out("rating").count() == 1)
    assert(out("movies").count() == 1)
  }

  test("repairAll ignores CFDs over absent relations") {
    val d = ratings(("o1", "R"))
    assert(Repair.repair(d, Vector(fd, CFD.fd("ghost", Vector("id"), "x"))).tuples("rating").size == 1)
  }

  test("repairAll reaches a fixpoint on chained CFDs") {
    // a→b and b→c: repairing a→b can induce a b→c violation.
    val cfds = Vector(CFD.fd("r", Vector("a"), "b"), CFD.fd("r", Vector("b"), "c"))
    val d    = db("r", Vector("a", "b", "c"), Seq("x", "b1", "c1"), Seq("x", "b2", "c2"))
    val out  = Frames.of(spark, Repair.repair(d, cfds))("r")
    assert(Violations.count(out, cfds(0)) == 0)
    assert(Violations.count(out, cfds(1)) == 0)
  }

  test("repair only modifies RHS values (minimal repair, no tuple deletion beyond dedupe)") {
    val d   = db("rating3", Vector("id", "rating", "other"), Seq("o1", "R", "extra1"), Seq("o1", "PG", "extra2"))
    val out = rows(Repair.repair(d, Vector(CFD.fd("rating3", Vector("id"), "rating"))), "rating3")
    assert(out.length == 2, "tuples differing beyond the RHS are kept")
    assert(out.map(_(1)).distinct.length == 1, "RHS unified")
    assert(out.map(_(2)) == Vector("extra1", "extra2"))
  }

  test("null LHS rows pass through unchanged") {
    val out = rows(Repair.repair(ratings((null, "R"), ("o1", "PG")), Vector(fd)), "rating")
    assert(out == Vector(Seq(null, "R"), Seq("o1", "PG")))
  }

  test("repair keeps the input order and the first of repeated tuples, and leaves its input alone") {
    val d   = ratings(("o2", "G"), ("o1", "R"), ("o3", "PG"), ("o1", "PG"), ("o2", "G"))
    val in  = rows(d, "rating")
    val out = rows(Repair.repair(d, Vector(fd)), "rating")
    assert(out.map(_(0)) == Vector("o2", "o1", "o3"))
    assert(rows(d, "rating") == in, "the input database is not modified")
  }

  // ----------------------------------------------------- differential tests

  /** The reference runs here: its results do not depend on partitioning,
    * and few shuffle partitions make its small shuffles cheap.
    */
  private lazy val refSpark = {
    val s = spark.newSession()
    s.conf.set("spark.sql.shuffle.partitions", "4")
    s
  }

  /** Spark's rows of `df` per value of its first column `cell`, without it. */
  private def byCell(df: org.apache.spark.sql.DataFrame): Map[String, Map[Seq[String], Int]] =
    df.collect().toSeq.groupBy(_.getString(0)).map { case (c, rs) =>
      c -> Frames.bag(rs.map(r => Array.tabulate(r.length - 1)(i => r.getString(i + 1))))
    }

  /** `cfd` over `rel` with a leading wildcard LHS attribute `cell`: run on
    * several cells stacked in one relation, it repairs each cell on its own.
    */
  private def perCell(cfd: CFD, rel: String): CFD =
    cfd.copy(rel = rel, lhs = "cell" +: cfd.lhs, lhsPattern = None +: cfd.lhsPattern)

  test("repair equals the Catalyst reference on generated relations, as multisets") {
    val r = RelSpec("r", Vector("a", "b", "c"), Set.empty)
    // CFD lists over r(a, b, c): FDs, chained FDs in both orders, constant
    // LHS and RHS patterns, and a two-attribute LHS.
    val configs: Vector[Vector[CFD]] = Vector(
      Vector(CFD.fd("r", Vector("a"), "b")),
      Vector(CFD.fd("r", Vector("a"), "b"), CFD.fd("r", Vector("b"), "c")),
      Vector(CFD.fd("r", Vector("b"), "c"), CFD.fd("r", Vector("a"), "b")),
      Vector(CFD("r", Vector("a"), "c", Vector(Some("x")), None)),
      Vector(CFD("r", Vector("a"), "b", Vector(None), Some("y"))),
      Vector(CFD("r", Vector("a", "b"), "c", Vector(None, Some("x")), Some("z")), CFD.fd("r", Vector("a"), "c")),
    )
    val value = Gen.frequency(3 -> Gen.oneOf("x", "y", "z", "w"), 1 -> Gen.const(null: String))
    val tuple = Gen.listOfN(3, value).map(_.toArray)
    val gen   = for {
      cfg <- Gen.choose(0, configs.size - 1)
      n   <- Gen.choose(0, 12)
      ts  <- Gen.listOfN(n, tuple)
    } yield (cfg, ts.toVector)
    val cases = (0 until 300).map(i => gen(Gen.Parameters.default, Seed(i.toLong)).get)

    // One Spark run for all cases: config k's cases stack in relation r<k>.
    val cellRel = RelSpec("cells", "cell" +: r.attrs, Set.empty)
    val frames = configs.indices.map { k =>
      val ts = cases.zipWithIndex.collect { case ((`k`, tuples), i) => tuples.map(i.toString +: _) }.flatten
      s"r$k" -> Frames.of(refSpark, cellRel, ts)
    }.toMap
    val ref = ReferenceRepair.repairAll(frames, configs.zipWithIndex.flatMap { case (cs, k) => cs.map(perCell(_, s"r$k")) })
    val refCells = configs.indices.map(k => k -> byCell(ref(s"r$k"))).toMap

    for (((k, tuples), i) <- cases.zipWithIndex) {
      val got  = Repair.repair(new Database(Schema(Vector(r)), Map("r" -> tuples)), configs(k)).tuples("r")
      val want = refCells(k).getOrElse(i.toString, Map.empty)
      assert(Frames.bag(got) == want, s"case $i, CFDs ${configs(k)}, tuples ${tuples.map(_.mkString("(", ",", ")"))}")
    }
  }

  test("repair equals the Catalyst reference on every tiny task's injected frames, as multisets") {
    val ps = Seq(0.05, 0.10, 0.20)
    val tasks = Seq(
      (Tables.moviesTask(spark, ExpScale.tiny, nMds = 3, p = 0.0), (p: Double) => Movies.injected(_, p, 42L)),
      (Tables.productsTask(spark, ExpScale.tiny, p = 0.0), (p: Double) => Products.injected(_, p, 123L)),
      (Tables.papersTask(spark, ExpScale.tiny, p = 0.0), (p: Double) => Papers.injected(_, p, 777L)),
    )
    // Each CFD relation of a task holds its rows at every p, tagged with the
    // cell name and collected in one job. The tasks' relation names are
    // disjoint, so one reference run repairs every cell.
    def cell(name: String, p: Double) = f"$name-$p%.2f"
    val stacked: Map[String, (RelSpec, Vector[Array[String]])] =
      (for ((t, inject) <- tasks; rel <- t.spec.cfds.map(_.rel).distinct) yield {
        val spec   = t.spec.schema(rel)
        val frames = ps.map(p => inject(p)(t.frames)(rel).select(lit(cell(t.name, p)).as("cell") +: spec.attrs.map(col): _*))
        val rows   = frames.reduce(_ union _).collect().map(r => Array.tabulate(r.length)(r.getString)).toVector
        rel -> (spec.copy(attrs = "cell" +: spec.attrs), rows)
      }).toMap
    val ref = ReferenceRepair.repairAll(
      stacked.map { case (rel, (spec, rows)) => rel -> Frames.of(refSpark, spec, rows) },
      tasks.flatMap(_._1.spec.cfds.map(c => perCell(c, c.rel))).toVector,
    )
    val refCells = ref.map { case (rel, df) => rel -> byCell(df) }

    for ((t, _) <- tasks; p <- ps) {
      val c    = cell(t.name, p)
      val data = stacked.collect { case (rel, (_, rows)) if t.spec.schema.contains(rel) =>
        rel -> rows.collect { case r if r(0) == c => r.tail }
      }
      val rep = Repair.repair(new Database(t.spec.schema, data), t.spec.cfds)
      for (rel <- data.keys) assert(Frames.bag(rep.tuples(rel)) == refCells(rel)(c), s"$c $rel")
    }
  }
}
