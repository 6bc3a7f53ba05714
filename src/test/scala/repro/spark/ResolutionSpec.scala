package repro.spark

import repro.{Frames, Oracle, SparkSpec}
import repro.core.constraints.MD
import repro.core.db.{AttrRef, Database, RelSpec, Schema}
import repro.core.sim.Similarity
import repro.exp.{ExpScale, Tables}

class ResolutionSpec extends SparkSpec {

  /** Relations `r1(id, name)` and `r2(id, name)` holding the given names,
    * with ids a1.. and b1.., resolved under the MD r1.name ≈ r2.name.
    */
  private def twoSides(left: Seq[String], right: Seq[String]): Database =
    new Database(
      Schema(Vector(RelSpec("r1", Vector("id", "name"), Set.empty), RelSpec("r2", Vector("id", "name"), Set.empty))),
      Map(
        "r1" -> left.zipWithIndex.map { case (v, i) => Array(s"a${i + 1}", v) }.toVector,
        "r2" -> right.zipWithIndex.map { case (v, i) => Array(s"b${i + 1}", v) }.toVector,
      ),
    )
  private val nameMd = MD(AttrRef("r1", "name"), AttrRef("r2", "name"))

  /** `r2`'s names after resolution, in tuple order. */
  private def resolved(left: Seq[String], right: Seq[String]): Vector[String] =
    Resolution.resolve(twoSides(left, right), Vector(nameMd)).tuples("r2").map(_(1)).toVector

  test("resolve maps each right value to its most similar left value") {
    val out = resolved(
      Seq("tavo rizel maku part ii", "tavo rizel maku part iii", "bodu fema lira"),
      Seq("tavo rizel maku part ii (1994)", "bodu fema lira x"),
    )
    assert(out == Vector("tavo rizel maku part ii", "bodu fema lira"))
  }

  test("resolve yields at most one row per right value") {
    val left = Seq("aaa bbb", "aaa bbc", "aaa bbd")
    val out  = resolved(left, Seq("aaa bbb x"))
    assert(out.size == 1 && left.contains(out.head))
  }

  test("resolve can map an ambiguous value to the wrong family member") {
    // The Star Wars phenomenon: a truncated title matches several siblings;
    // top-1 must commit to exactly one of them.
    val out = resolved(Seq("tavo rizel maku part ii", "tavo rizel maku part iii"), Seq("tavo rizel maku"))
    assert(out.size == 1)
    assert(out.head.startsWith("tavo rizel maku part"))
  }

  test("resolve breaks a score tie toward the smaller left value") {
    assert(Similarity.sim("tavo rizel x", "tavo rizel") == Similarity.sim("tavo rizel y", "tavo rizel"))
    assert(resolved(Seq("tavo rizel y", "tavo rizel x"), Seq("tavo rizel")) == Vector("tavo rizel x"))
  }

  test("resolve unifies the second side's vocabulary into the first") {
    val db  = twoSides(Seq("tavo rizel maku"), Seq("tavo rizel maku (1994)", "qqq zzz www"))
    val out = Resolution.resolve(db, Vector(nameMd))
    assert(out.tuples("r2").map(_.toSeq) == Seq(Seq("b1", "tavo rizel maku"), Seq("b2", "qqq zzz www")),
      "similar value is unified, dissimilar value is untouched")
    assert(out.tuples("r1") == db.tuples("r1"), "first side is untouched")
    assert(db.tuples("r2").map(_(1)) == Seq("tavo rizel maku (1994)", "qqq zzz www"), "input is not modified")
  }

  test("resolve handles multiple MDs sequentially") {
    val db = new Database(
      Schema(Vector(
        RelSpec("r1", Vector("id", "name", "venue"), Set.empty),
        RelSpec("r2", Vector("id", "name", "venue"), Set.empty),
        RelSpec("r3", Vector("id", "name"), Set.empty),
      )),
      Map(
        "r1" -> Vector(Array("a1", "tavo rizel", "venue one")),
        "r2" -> Vector(Array("b1", "tavo rizel x", "venue one conf")),
        "r3" -> Vector(Array("c1", "tavo rizel x")),
      ),
    )
    val mds = Vector(
      MD(AttrRef("r1", "name"), AttrRef("r2", "name")),
      MD(AttrRef("r1", "venue"), AttrRef("r2", "venue")),
      // r2's names are already resolved when this pair runs
      MD(AttrRef("r2", "name"), AttrRef("r3", "name")),
    )
    val out = Resolution.resolve(db, mds)
    assert(out.tuples("r2").head.toSeq == Seq("b1", "tavo rizel", "venue one"))
    assert(out.tuples("r3").head.toSeq == Seq("c1", "tavo rizel"))
  }

  test("after resolution, exact equality joins succeed where they failed before") {
    val db = twoSides(Seq("tavo rizel maku"), Seq("tavo rizel maku (1994)"))
    def joined(d: Database): Int = d.tuples("r1").map(t => d.lookup("r2", 1, t(1)).length).sum
    assert(joined(db) == 0)
    assert(joined(Resolution.resolve(db, Vector(nameMd))) == 1)
  }

  test("resolve equals a LEFT JOIN on the top-1 mapping with coalesce — oracle-checked on tiny movies") {
    val t  = Tables.moviesTask(spark, ExpScale.tiny, nMds = 3, p = 0.0)
    val db = Database.fromFrames(t.spec.schema, t.frames)
    val out = Resolution.resolve(db, t.spec.mds)
    val pairs = t.spec.mds.flatMap(_.pairs)
    // the movies MDs rewrite three different relations, one attribute each
    assert(pairs.map(_._2.rel).distinct.size == pairs.size)
    for ((refA, refB) <- pairs) {
      val spec    = t.spec.schema(refB.rel)
      val top1    = ReferenceTopK(SimJoin.pairs(db.domain(refA), db.domain(refB), SimJoin.DefaultThreshold), _.b, _.a, 1)
      val mapping = Frames.of(spark, RelSpec("mapping", Vector("fromv", "tov"), Set.empty),
        top1.toSeq.map { case (b, ms) => Array(b, ms.head.value) })
      val cols = spec.attrs.map { a =>
        if (a == refB.attr) s"coalesce(m.tov, d.$a) AS $a" else s"d.$a AS $a"
      }
      Oracle.assertEquivalent(
        Frames.of(spark, spec, out.tuples(refB.rel)),
        s"SELECT ${cols.mkString(", ")} FROM rel d LEFT JOIN mapping m ON d.${refB.attr} = m.fromv",
        "rel" -> Frames.of(spark, spec, db.tuples(refB.rel)), "mapping" -> mapping,
      )
      assert(top1.nonEmpty)
    }
    for (rel <- t.spec.schema.rels.map(_.name) if !pairs.exists(_._2.rel == rel))
      assert(out.tuples(rel) eq db.tuples(rel), s"$rel is not a second side and stays as it was")
  }
}
