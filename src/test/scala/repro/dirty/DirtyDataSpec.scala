package repro.dirty

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.core.db.Schema
import repro.core.sim.Similarity

/** Generator-level invariants of the three synthetic dataset pairs. */
class DirtyDataSpec extends SparkSpec {

  test("Rnd.double is deterministic and in [0,1)") {
    assert(Rnd.double(1, 2) == Rnd.double(1, 2))
    for (i <- 0 until 200) {
      val d = Rnd.double(i.toLong, 7)
      assert(d >= 0.0 && d < 1.0)
    }
  }

  test("Rnd.int stays in range and varies") {
    val vs = (0 until 100).map(i => Rnd.int(5, i.toLong))
    assert(vs.forall(v => v >= 0 && v < 5))
    assert(vs.distinct.size == 5)
  }

  test("Words.word is deterministic and pronounceable-ish") {
    assert(Words.word(7) == Words.word(7))
    assert(Words.word(7).matches("[a-z]+"))
    assert(Words.word(7).length >= 4)
  }

  test("Words.abbrevFirst abbreviates only the first token") {
    assert(Words.abbrevFirst("jose smith") == "j. smith")
    assert(Words.abbrevFirst("solo") == "solo")
  }

  test("Words.typo drops exactly one character") {
    val s = "abcdefgh"
    assert(Words.typo(s, 3).length == s.length - 1)
    assert(Words.typo("abc", 3) == "abc") // too short to perturb
  }

  test("Words.variant cycles roman suffixes") {
    assert(Words.variant(0) == "part ii")
    assert(Words.variant(4) == "part ii")
  }

  /** Each relation's frame has the declared attributes as its columns, and
    * its `id` column lists the entities in order: entity `e` renders
    * `tuples(rel)(e) = (id, n)`, its id in that relation's database, on `n`
    * tuples (one, or one per element of an exploded list).
    */
  private def assertFramesFollow[A](schema: Schema, fr: Map[String, DataFrame], rows: Seq[A])(
      tuples: String => A => (String, Int)): Unit =
    for (spec <- schema.rels) {
      val df = fr(spec.name)
      assert(df.columns.toVector == spec.attrs, spec.name)
      val expected = rows.flatMap { r => val (id, n) = tuples(spec.name)(r); Seq.fill(n)(id) }
      assert(df.select("id").collect().map(_.getString(0)).toSeq == expected, spec.name)
    }

  // ------------------------------------------------------------- movies

  // A constant, so the generator closure copies it and not the suite.
  private final val nMovies = 300
  private def movieRows   = Synthetic.rows(spark, nMovies)(Movies.row(nMovies, seed = 11))
  private lazy val movies = movieRows.collect().toSeq

  test("movies: generation is deterministic") {
    assert(movieRows.collect().toSeq == movies)
  }

  test("movies: ids are distinct and database-prefixed") {
    assert(movies.map(_.imdbId).distinct.size == movies.size)
    assert(movies.forall(m => m.imdbId.startsWith("im") && m.omdbId.startsWith("om")))
  }

  test("movies: label is drama AND rated R") {
    assert(movies.forall(m => m.label == (m.genre == "Drama" && m.rating == "R")))
  }

  test("movies: a healthy fraction of titles renders identically") {
    val frac = movies.count(m => m.titleImdb == m.titleOmdb).toDouble / movies.size
    assert(frac > 0.2 && frac < 0.45, s"identical-title fraction $frac")
  }

  test("movies: perturbed titles stay similar to their counterpart") {
    val perturbed = movies.filter(m => m.titleImdb != m.titleOmdb)
    val avg = perturbed.map(m => Similarity.sim(m.titleImdb, m.titleOmdb)).sum / perturbed.size
    assert(avg > 0.55, s"average counterpart similarity $avg")
  }

  test("movies: families share title stems (siblings are near-duplicates)") {
    val fams = movies.groupBy(_.id / 3).filter { case (_, ms) =>
      ms.size == 3 && ms.map(_.titleImdb).distinct.size == 3 &&
        ms.forall(_.titleImdb.contains("part"))
    }
    assert(fams.nonEmpty, "some full families must exist")
    val sibs = fams.head._2.map(_.titleImdb)
    assert(Similarity.sim(sibs(0), sibs(1)) > 0.7)
  }

  test("movies: a controlled share of names matches exactly across databases") {
    val all   = movies.flatMap(m => m.cast.zip(m.castO))
    val exact = all.count(p => p._1 == p._2).toDouble / all.size
    assert(exact > 0.40 && exact < 0.70, s"exact-name fraction $exact")
  }

  test("movies: omdb years occasionally disagree with imdb years") {
    val frac = movies.count(m => m.year != m.yearO).toDouble / movies.size
    assert(frac > 0.04 && frac < 0.18, s"year-mismatch fraction $frac")
  }

  test("movies: frames align with the declared schema") {
    val fr = Movies.frames(movieRows)
    assertFramesFollow(Movies.schema, fr, movies) {
      case "imdb_mov2cast"            => m => (m.imdbId, m.cast.size)
      case "imdb_mov2writers"         => m => (m.imdbId, m.writers.size)
      case "omdb_mov2cast"            => m => (m.omdbId, m.castO.size)
      case "omdb_mov2writers"         => m => (m.omdbId, m.writersO.size)
      case r if r.startsWith("imdb_") => m => (m.imdbId, 1)
      case r if r.startsWith("omdb_") => m => (m.omdbId, 1)
    }
    assert(fr("imdb_mov2cast").count() == 2L * nMovies)
    assert(fr("imdb_mov2writers").count() == 2L * nMovies)
  }

  test("movies: spec wires 1-MD and 3-MD configurations") {
    assert(Movies.spec(1).mds.size == 1)
    assert(Movies.spec(3).mds.size == 3)
    assert(Movies.spec(3).cfds.size == 4)
  }

  test("movies: examples are stratified and disjoint by label") {
    val (pos, neg) = Movies.examples(movies, 15, 30, seed = 5)
    assert(pos.size == 15 && neg.size == 30)
    assert(pos.forall(_.positive) && neg.forall(!_.positive))
    assert(pos.map(_.key).toSet.intersect(neg.map(_.key).toSet).isEmpty)
    val negIds   = neg.map(_.args.head).toSet
    val dramaNeg = movies.count(m => negIds(m.imdbId) && m.genre == "Drama")
    assert(dramaNeg >= 10, s"half the negatives should be hard (drama): $dramaNeg")
  }

  test("movies: injected frames contain CFD violations at roughly rate p") {
    val fr   = Movies.frames(movieRows)
    val inj  = Movies.injected(fr, 0.2, seed = 11)
    val extra = inj("omdb_mov2rating").count() - fr("omdb_mov2rating").count()
    assert(extra > nMovies * 0.1 && extra < nMovies * 0.3, s"injected $extra")
    assert(inj("imdb_mov2genres").count() == fr("imdb_mov2genres").count(), "no CFD ⇒ untouched")
  }

  // ------------------------------------------------------------- products

  private def productRows   = Synthetic.rows(spark, 300)(Products.row(seed = 12))
  private lazy val products = productRows.collect().toSeq

  test("products: label is the ComputersAccessories category") {
    assert(products.forall(p => p.label == (p.category == "ComputersAccessories")))
  }

  test("products: tribeca brand is always ComputersAccessories") {
    val tribeca = products.filter(_.brand == "tribeca")
    assert(tribeca.nonEmpty)
    assert(tribeca.forall(_.label))
  }

  test("products: group is a noisy proxy of the category") {
    val ca  = products.filter(_.label)
    val caEg = ca.count(_.group == "Electronics - General").toDouble / ca.size
    assert(caEg > 0.6, s"CA products mostly Electronics-General: $caEg")
    val nonCa   = products.filterNot(_.label)
    val nonCaEg = nonCa.count(_.group == "Electronics - General").toDouble / nonCa.size
    assert(nonCaEg > 0.1 && nonCaEg < 0.6, s"but the group is noisy: $nonCaEg")
  }

  test("products: frames align with the declared schema") {
    assertFramesFollow(Products.schema, Products.frames(productRows), products) {
      case r if r.startsWith("walmart_") => p => (p.wId, 1)
      case r if r.startsWith("amazon_")  => p => (p.aId, 1)
    }
  }

  test("products: examples use the upc only") {
    val (pos, neg) = Products.examples(products, 15, 30, seed = 5)
    assert(pos.size == 15 && neg.size == 30)
    assert((pos ++ neg).forall(_.args.head.startsWith("upc")))
  }

  test("products: injection touches all six CFD relations") {
    val fr  = Products.frames(productRows)
    val inj = Products.injected(fr, 0.3, seed = 9)
    for (cfd <- Products.cfds)
      assert(inj(cfd.rel).count() > fr(cfd.rel).count(), cfd.rel)
  }

  // ------------------------------------------------------------- papers

  private def paperRows   = Synthetic.rows(spark, 300)(Papers.row(300, seed = 13))
  private lazy val papers = paperRows.collect().toSeq

  test("papers: scholar has no year attribute at all") {
    assert(!Papers.schema("scholar_paper").attrs.contains("year"))
    assert(Papers.schema("dblp_paper").attrs.contains("year"))
  }

  test("papers: scholar authors are always abbreviated (no exact cross joins)") {
    assert(papers.forall(p => p.authorsS.forall(_.contains(". "))))
    val overlap = papers.flatMap(p => p.authorsD.toSet.intersect(p.authorsS.toSet))
    assert(overlap.isEmpty)
  }

  test("papers: venues re-render but stay similar") {
    val perturbed = papers.filter(p => p.venueD != p.venueS)
    assert(perturbed.nonEmpty)
    assert(perturbed.forall(p => p.venueS.contains(p.venueD)))
  }

  test("papers: positive examples carry the true year, negatives a wrong one") {
    val (pos, neg) = Papers.examples(papers, 20, 40, seed = 3)
    val byId = papers.map(p => p.gsId -> p.year.toString).toMap
    assert(pos.forall(e => byId(e.args(0)) == e.args(1)))
    assert(neg.forall(e => byId(e.args(0)) != e.args(1)))
    assert(neg.size == 40)
  }

  test("papers: negative years stay within the generated domain") {
    val (_, neg) = Papers.examples(papers, 20, 40, seed = 3)
    assert(neg.forall(e => { val y = e.args(1).toInt; y >= 1995 && y <= 2019 }))
  }

  test("papers: target year argument is output-only (no binding)") {
    assert(Papers.spec.target.bindings(1).isEmpty)
    assert(Papers.spec.target.bindings(0).nonEmpty)
  }

  test("papers: frames align with the declared schema") {
    assertFramesFollow(Papers.schema, Papers.frames(paperRows), papers) {
      case "dblp_authors"                => p => (p.dId, p.authorsD.size)
      case "scholar_authors"             => p => (p.gsId, p.authorsS.size)
      case r if r.startsWith("dblp_")    => p => (p.dId, 1)
      case r if r.startsWith("scholar_") => p => (p.gsId, 1)
    }
  }

  test("papers: injection produces scrambled titles that match nothing") {
    val fr  = Papers.frames(paperRows)
    val inj = Papers.injected(fr, 0.3, seed = 4)
    assert(inj("scholar_paper").count() > fr("scholar_paper").count())
    assert(inj("dblp_paper").count() > fr("dblp_paper").count())
  }
}
