package repro.spark

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, Violations}
import repro.core.constraints.CFD

class RepairSpec extends SparkSpec {
  import spark.implicits._

  private val fd = CFD.fd("rating", Vector("id"), "rating")

  test("repairOne unifies conflicting RHS values to one of them") {
    val df  = Seq(("o1", "R"), ("o1", "PG"), ("o2", "G")).toDF("id", "rating")
    val out = Repair.repairOne(df, fd).collect().map(r => (r.getString(0), r.getString(1)))
    assert(out.count(_._1 == "o1") == 1, "conflicting duplicates must collapse")
    assert(Set("R", "PG").contains(out.find(_._1 == "o1").get._2))
    assert(out.contains(("o2", "G")))
  }

  test("repairOne leaves violation-free relations unchanged") {
    val df = Seq(("o1", "R"), ("o2", "PG")).toDF("id", "rating")
    assert(Repair.repairOne(df, fd).collect().toSet ==
      df.collect().toSet)
  }

  test("repairOne picks the canonical value by hash order deterministically") {
    val df = Seq(("o1", "R"), ("o1", "PG")).toDF("id", "rating")
    val a  = Repair.repairOne(df, fd).collect().head.getString(1)
    val b  = Repair.repairOne(df, fd).collect().head.getString(1)
    assert(a == b)
  }

  test("repaired relation has no remaining violations") {
    val df = Seq(("o1", "R"), ("o1", "PG"), ("o1", "G"), ("o2", "R"), ("o2", "PG")).toDF("id", "rating")
    assert(Violations.count(Repair.repairOne(df, fd), fd) == 0)
  }

  test("constant-RHS pattern repairs to the pattern constant") {
    val cfd = CFD("rating", Vector("id"), "rating", Vector(None), Some("R"))
    val df  = Seq(("o1", "PG"), ("o2", "R")).toDF("id", "rating")
    val out = Repair.repairOne(df, cfd).collect().map(r => (r.getString(0), r.getString(1))).toSet
    assert(out == Set(("o1", "R"), ("o2", "R")))
  }

  test("constant-LHS pattern limits the repair scope") {
    // (lang=English → country unified); French group stays conflicting.
    val cfd = CFD("loc", Vector("title", "lang"), "country", Vector(None, Some("en")), None)
    val df = Seq(
      ("Bait", "en", "USA"), ("Bait", "en", "Ireland"),
      ("Hook", "fr", "USA"), ("Hook", "fr", "Ireland"),
    ).toDF("title", "lang", "country")
    val out = Repair.repairOne(df, cfd)
    assert(out.filter(col("title") === "Bait").count() == 1)
    assert(out.filter(col("title") === "Hook").count() == 2)
  }

  test("violationCount counts tuples in conflicting groups — oracle-checked") {
    val df = Seq(("o1", "R"), ("o1", "PG"), ("o2", "G"), ("o3", "R"), ("o3", "R")).toDF("id", "rating")
    val spark2 = spark; import spark2.implicits._
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
    val frames = Map(
      "rating" -> Seq(("o1", "R"), ("o1", "PG")).toDF("id", "rating"),
      "movies" -> Seq(("m1", "t1"), ("m1", "t2")).toDF("id", "title"),
    )
    val cfds = Vector(fd, CFD.fd("movies", Vector("id"), "title"))
    val out  = Repair.repairAll(frames, cfds)
    assert(Violations.count(out("rating"), cfds(0)) == 0)
    assert(Violations.count(out("movies"), cfds(1)) == 0)
    assert(out("rating").count() == 1)
    assert(out("movies").count() == 1)
  }

  test("repairAll ignores CFDs over absent relations") {
    val frames = Map("rating" -> Seq(("o1", "R")).toDF("id", "rating"))
    val cfds   = Vector(fd, CFD.fd("ghost", Vector("id"), "x"))
    assert(Repair.repairAll(frames, cfds)("rating").count() == 1)
  }

  test("repairAll reaches a fixpoint on chained CFDs") {
    // a→b and b→c: repairing a→b can induce a b→c violation.
    val cfds = Vector(CFD.fd("r", Vector("a"), "b"), CFD.fd("r", Vector("b"), "c"))
    val df   = Seq(("x", "b1", "c1"), ("x", "b2", "c2")).toDF("a", "b", "c")
    val out  = Repair.repairAll(Map("r" -> df), cfds)("r")
    assert(Violations.count(out, cfds(0)) == 0)
    assert(Violations.count(out, cfds(1)) == 0)
  }

  test("repair only modifies RHS values (minimal repair, no tuple deletion beyond dedupe)") {
    val df  = Seq(("o1", "R", "extra1"), ("o1", "PG", "extra2")).toDF("id", "rating", "other")
    val cfd = CFD.fd("rating3", Vector("id"), "rating")
    val out = Repair.repairOne(df, cfd.copy(rel = "rating3")).collect()
    assert(out.length == 2, "tuples differing beyond the RHS are kept")
    assert(out.map(_.getString(1)).distinct.length == 1, "RHS unified")
    assert(out.map(_.getString(2)).toSet == Set("extra1", "extra2"))
  }

  test("null LHS rows pass through unchanged") {
    val df  = Seq((null.asInstanceOf[String], "R"), ("o1", "PG")).toDF("id", "rating")
    val out = Repair.repairOne(df, fd)
    assert(out.count() == 2)
  }
}
