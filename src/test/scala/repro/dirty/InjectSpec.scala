package repro.dirty

import org.apache.spark.sql.functions._
import repro.{Frames, Oracle, SparkSpec, Violations}
import repro.core.constraints.CFD
import repro.core.db.{Database, RelSpec, Schema}
import repro.spark.Repair

class InjectSpec extends SparkSpec {
  import spark.implicits._

  private val fd = CFD.fd("r", Vector("id"), "v")
  private def base(n: Int) = (1 to n).map(i => (s"k$i", s"v${i % 7}")).toDF("id", "v")

  test("rotate always produces a different in-domain value") {
    val dom = Vector("a", "b", "c")
    for (v <- dom; h <- 0L to 10L) {
      val out = Inject.rotate(dom)(v, h)
      assert(dom.contains(out) && out != v)
    }
  }

  test("rotate on an unknown value still lands in the domain") {
    assert(Vector("a", "b").contains(Inject.rotate(Vector("a", "b"))("zzz", 5)))
  }

  test("scramble reverses (and changes) the value") {
    assert(Inject.scramble("abc", 0) == "cba")
    assert(Inject.scramble(null, 0) == "zzz")
  }

  test("bumpInt shifts integers and tolerates non-numeric input") {
    val out = Inject.bumpInt(3)("2000", 7).toInt
    assert(out > 2000 && out <= 2003)
    assert(Inject.bumpInt(3)("abc", 7) == "abcx")
  }

  test("violations adds conflicting duplicates at roughly rate p") {
    val n   = 2000
    val out = Inject.violations(base(n), "v", 0.10, seed = 1, Inject.rotate(Vector("x", "y")))
    val injected = out.count() - n
    assert(injected > n * 0.06 && injected < n * 0.14, s"got $injected of expected ~${n * 0.1}")
  }

  test("p=0 is the identity") {
    val df = base(10)
    assert(Inject.violations(df, "v", 0.0, 1, Inject.scramble).collect().toSet == df.collect().toSet)
  }

  test("every injected duplicate violates the CFD — oracle-checked group count") {
    val df  = base(500)
    val out = Inject.violations(df, "v", 0.2, seed = 2, Inject.scramble)
    // each injected row creates a conflicting id group of ≥ 2 distinct v's
    val got = out.groupBy(col("id")).agg(countDistinct(col("v")).cast("string").as("nv"))
      .filter(col("nv") > "1").select(col("id"))
    Oracle.assertEquivalent(
      got,
      "SELECT id FROM r GROUP BY id HAVING count(DISTINCT v) > 1",
      "r" -> out,
    )
    assert(got.count() > 0)
    assert(Violations.count(out, fd) >= 2 * got.count())
  }

  test("injection is deterministic in the seed") {
    val a = Inject.violations(base(300), "v", 0.1, 7, Inject.scramble).collect().toSet
    val b = Inject.violations(base(300), "v", 0.1, 7, Inject.scramble).collect().toSet
    val c = Inject.violations(base(300), "v", 0.1, 8, Inject.scramble).collect().toSet
    assert(a == b)
    assert(a != c)
  }

  test("minimal repair removes exactly the injected conflicts") {
    val df  = base(400)
    val out = Inject.violations(df, "v", 0.15, seed = 3, Inject.rotate(Vector("p", "q")))
    val schema = Schema(Vector(RelSpec("r", Vector("id", "v"), Set.empty)))
    val rep = Repair.repair(Database.fromFrames(schema, Map("r" -> out)), Vector(fd))
    assert(Violations.count(Frames.of(spark, rep)("r"), fd) == 0)
    assert(rep.tuples("r").size == df.count(), "repair collapses duplicates back to one tuple per key")
  }
}
