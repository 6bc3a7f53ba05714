package repro.spark

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.constraints.MD
import repro.core.db.AttrRef
import repro.core.sim.Similarity

class ResolutionSpec extends SparkSpec {
  import spark.implicits._

  test("top1Mapping maps each right value to its most similar left value") {
    val left  = Seq("tavo rizel maku part ii", "tavo rizel maku part iii", "bodu fema lira").toDF("a")
    val right = Seq("tavo rizel maku part ii (1994)", "bodu fema lira x").toDF("b")
    val m = Resolution.top1Mapping(left, right, 0.5).collect()
      .map(r => r.getString(0) -> r.getString(1)).toMap
    assert(m("tavo rizel maku part ii (1994)") == "tavo rizel maku part ii")
    assert(m("bodu fema lira x") == "bodu fema lira")
  }

  test("top1Mapping yields at most one row per right value") {
    val left  = Seq("aaa bbb", "aaa bbc", "aaa bbd").toDF("a")
    val right = Seq("aaa bbb x").toDF("b")
    assert(Resolution.top1Mapping(left, right, 0.3).count() == 1)
  }

  test("top1Mapping can resolve an ambiguous value to the wrong family member") {
    // The Star Wars phenomenon: a truncated title matches several siblings;
    // top-1 must commit to exactly one of them.
    val left  = Seq("tavo rizel maku part ii", "tavo rizel maku part iii").toDF("a")
    val right = Seq("tavo rizel maku").toDF("b")
    val m     = Resolution.top1Mapping(left, right, 0.3).collect()
    assert(m.length == 1)
    assert(m.head.getString(1).startsWith("tavo rizel maku part"))
  }

  test("top1Mapping breaks a score tie toward the smaller left value") {
    val left  = Seq("tavo rizel y", "tavo rizel x").toDF("a")
    val right = Seq("tavo rizel").toDF("b")
    assert(Similarity.sim("tavo rizel x", "tavo rizel") == Similarity.sim("tavo rizel y", "tavo rizel"))
    val m = Resolution.top1Mapping(left, right, 0.5).collect().map(r => r.getString(0) -> r.getString(1))
    assert(m.toSeq == Seq("tavo rizel" -> "tavo rizel x"))
  }

  test("replaceValues rewrites mapped values and keeps unmapped ones — oracle-checked") {
    val df      = Seq(("x1", "old1"), ("x2", "old2"), ("x3", "keep")).toDF("id", "name")
    val mapping = Seq(("old1", "new1"), ("old2", "new2")).toDF("__from", "__to")
    val got     = Resolution.replaceValues(df, "name", mapping).select(col("id"), col("name"))
    val mappingPlain = mapping.select(col("__from").as("fromv"), col("__to").as("tov"))
    Oracle.assertEquivalent(
      got,
      """SELECT d.id AS id, coalesce(m.tov, d.name) AS name
        |FROM df d LEFT JOIN mapping m ON d.name = m.fromv""".stripMargin,
      "df" -> df, "mapping" -> mappingPlain,
    )
  }

  test("resolveAll unifies the second side's vocabulary into the first") {
    val frames = Map(
      "r1" -> Seq(("a1", "tavo rizel maku")).toDF("id", "name"),
      "r2" -> Seq(("b1", "tavo rizel maku (1994)"), ("b2", "qqq zzz www")).toDF("id", "name"),
    )
    val md  = MD(AttrRef("r1", "name"), AttrRef("r2", "name"))
    val out = Resolution.resolveAll(spark, frames, Vector(md))
    val r2  = out("r2").collect().map(r => r.getString(0) -> r.getString(1)).toMap
    assert(r2("b1") == "tavo rizel maku", "similar value is unified")
    assert(r2("b2") == "qqq zzz www", "dissimilar value is untouched")
    assert(out("r1").collect().toSeq == frames("r1").collect().toSeq, "first side is untouched")
  }

  test("resolveAll handles multiple MDs sequentially") {
    val frames = Map(
      "r1" -> Seq(("a1", "tavo rizel", "venue one")).toDF("id", "name", "venue"),
      "r2" -> Seq(("b1", "tavo rizel x", "venue one conf")).toDF("id", "name", "venue"),
    )
    val mds = Vector(
      MD(AttrRef("r1", "name"), AttrRef("r2", "name")),
      MD(AttrRef("r1", "venue"), AttrRef("r2", "venue")),
    )
    val out = Resolution.resolveAll(spark, frames, mds)("r2").collect().head
    assert(out.getString(1) == "tavo rizel")
    assert(out.getString(2) == "venue one")
  }

  test("after resolution, exact equality joins succeed where they failed before") {
    val frames = Map(
      "r1" -> Seq(("a1", "tavo rizel maku")).toDF("id", "name"),
      "r2" -> Seq(("b1", "tavo rizel maku (1994)")).toDF("id", "name"),
    )
    val md     = MD(AttrRef("r1", "name"), AttrRef("r2", "name"))
    def joined(fs: Map[String, org.apache.spark.sql.DataFrame]): Long =
      fs("r1").as("l").join(fs("r2").as("r"), col("l.name") === col("r.name")).count()
    assert(joined(frames) == 0)
    assert(joined(Resolution.resolveAll(spark, frames, Vector(md))) == 1)
  }
}
