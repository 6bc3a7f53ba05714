package repro.dirty

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._

import repro.core.constraints.{CFD, MD}
import repro.core.db._

/** One hidden movie entity and its two database renderings. */
final case class MovieRow(
    id: Long,
    imdbId: String,
    omdbId: String,
    titleImdb: String,
    titleOmdb: String,
    year: Int,
    yearO: Int,
    genre: String,
    rating: String,
    country: String,
    cast: Seq[String],
    castO: Seq[String],
    writers: Seq[String],
    writersO: Seq[String],
    label: Boolean,
)

/** Synthetic IMDB+OMDB analog (DESIGN.md §3). Target:
  * `dramaRestricted(imdbId)` — genre Drama (IMDB side) ∧ rating R (OMDB side
  * only). Titles are re-rendered per database; movies come in families of
  * sequels whose titles collide after perturbation (the paper's Star Wars
  * example); cast/writer names match exactly across databases most of the
  * time (the paper's "many exact matches" MDs).
  */
object Movies {

  // Generator constants (DESIGN.md §3).
  private val familyFrac         = 0.45 // share of id triples that are sequel families
  private val identicalTitleFrac = 0.30 // OMDB title rendered exactly as IMDB's
  private val exactNameFrac      = 0.55 // each OMDB cast/writer name rendered exactly
  private val yearMismatchFrac   = 0.10 // OMDB year one later than IMDB's
  private val usaFrac            = 0.5
  private val pRUsa              = 0.42 // P(rating R | country usa)
  private val pROther            = 0.15 // P(rating R | any other country)

  private val ratings   = Vector("G", "PG", "PG13", "R")
  private val countries = Vector("usa", "uk", "france", "spain", "japan", "india")

  /** Movie `id` of a population of `n` (the cast and writer pools scale
    * with `n`), generated from `seed`.
    */
  def row(n: Int, seed: Long)(id: Long): MovieRow = {
    val s       = seed
    val groupId = id / 3
    val inFam   = Rnd.double(s, groupId, 1) < familyFrac
    val baseKey = if (inFam) groupId else 1000000L + id
    val w       = Vector.tabulate(3)(k => Words.titleWord(baseKey * 3 + k, s))
    val base    = w.mkString(" ")
    val year    = 1980 + Rnd.int(40, s, id, 3)
    val titleI  = if (inFam) base + " " + Words.variant((id % 3).toInt) else base

    val c = Rnd.double(s, id, 2)
    val titleO =
      if (c < identicalTitleFrac) titleI
      else if (c < identicalTitleFrac + 0.15) s"$titleI ($year)"
      else if (c < identicalTitleFrac + 0.40) {
        // Variant / last word dropped: ambiguous with every sibling — the
        // paper's "Star Wars" phenomenon (top-1 resolution goes wrong here).
        if (inFam) base else w.take(2).mkString(" ")
      } else if (c < identicalTitleFrac + 0.55) {
        (Vector(w(1), w(0), w(2)) ++ (if (inFam) Vector(Words.variant((id % 3).toInt)) else Vector.empty))
          .mkString(" ")
      } else Words.typo(titleI, Rnd.hash(s, id, 4))

    val country = if (Rnd.double(s, id, 5) < usaFrac) "usa" else countries(1 + Rnd.int(countries.length - 1, s, id, 6))
    val g       = Rnd.double(s, id, 7)
    val genre =
      if (g < 0.30) "Drama" else if (g < 0.55) "Comedy" else if (g < 0.75) "Action"
      else if (g < 0.90) "Horror" else "SciFi"
    val pR     = if (country == "usa") pRUsa else pROther
    val rating = if (Rnd.double(s, id, 8) < pR) "R" else ratings(Rnd.int(3, s, id, 9))

    val nCast    = math.max(4, n)
    val nWriters = math.max(4, (n * 0.8).toInt)
    val cast     = Vector.tabulate(2)(j => Words.person(Rnd.int(nCast, s, id, 40 + j), s))
    val writers  = Vector.tabulate(2)(j => Words.person(100000 + Rnd.int(nWriters, s, id, 50 + j), s))
    val yearO    = if (Rnd.double(s, id, 12) < yearMismatchFrac) year + 1 else year
    def render(names: Seq[String], salt: Int): Seq[String] =
      names.zipWithIndex.map { case (nm, j) =>
        if (Rnd.double(s, id, salt + j, nm.length.toLong) < exactNameFrac) nm else Words.abbrevFirst(nm)
      }

    MovieRow(
      id = id,
      imdbId = s"im$id",
      omdbId = s"om$id",
      titleImdb = titleI,
      titleOmdb = titleO,
      year = year,
      yearO = yearO,
      genre = genre,
      rating = rating,
      country = country,
      cast = cast,
      castO = render(cast, 60),
      writers = writers,
      writersO = render(writers, 70),
      label = genre == "Drama" && rating == "R",
    )
  }

  /** The ten relations (5 IMDB + 5 OMDB). `year` is a join attribute
    * (variable-mode): a constant inside the key literal would block
    * literal-dropping generalization of the whole literal.
    */
  private val rels: Vector[Rel] = Vector(
    Rel("imdb_movies", Set.empty, "id" -> col("imdbId"), "title" -> col("titleImdb"), "year" -> col("year").cast("string")),
    Rel("imdb_mov2genres", Set("genre"), "id" -> col("imdbId"), "genre" -> col("genre")),
    Rel("imdb_mov2countries", Set("country"), "id" -> col("imdbId"), "country" -> col("country")),
    Rel("imdb_mov2cast", Set.empty, "id" -> col("imdbId"), "name" -> explode(col("cast"))),
    Rel("imdb_mov2writers", Set.empty, "id" -> col("imdbId"), "name" -> explode(col("writers"))),
    Rel("omdb_movies", Set.empty, "id" -> col("omdbId"), "title" -> col("titleOmdb"), "year" -> col("yearO").cast("string")),
    Rel("omdb_mov2genres", Set("genre"), "id" -> col("omdbId"), "genre" -> col("genre")),
    Rel("omdb_mov2rating", Set("rating"), "id" -> col("omdbId"), "rating" -> col("rating")),
    Rel("omdb_mov2cast", Set.empty, "id" -> col("omdbId"), "name" -> explode(col("castO"))),
    Rel("omdb_mov2writers", Set.empty, "id" -> col("omdbId"), "name" -> explode(col("writersO"))),
  )
  val schema: Schema = Schema(rels.map(_.spec))
  def frames(rows: Dataset[MovieRow]): Map[String, DataFrame] = Synthetic.frames(rels, rows)

  /** MDs: titles (always); plus cast and writer names in the 3-MD config. */
  def mds(nMds: Int): Vector[MD] = {
    val title  = MD(AttrRef("imdb_movies", "title"), AttrRef("omdb_movies", "title"))
    val cast   = MD(AttrRef("imdb_mov2cast", "name"), AttrRef("omdb_mov2cast", "name"))
    val writer = MD(AttrRef("imdb_mov2writers", "name"), AttrRef("omdb_mov2writers", "name"))
    if (nMds >= 3) Vector(title, cast, writer) else Vector(title)
  }

  /** 4 CFDs (paper Sec. 6.1.2): key → rating, key → title, key → year,
    * key → country, each with the alteration that injects its violations.
    */
  private val injections: Vector[(CFD, Inject.Alter)] = Vector(
    CFD.fd("omdb_mov2rating", Vector("id"), "rating")     -> Inject.rotate(ratings),
    CFD.fd("omdb_movies", Vector("id"), "title")          -> Inject.scramble,
    CFD.fd("imdb_movies", Vector("id"), "year")           -> Inject.bumpInt(3),
    CFD.fd("imdb_mov2countries", Vector("id"), "country") -> Inject.rotate(countries),
  )
  val cfds: Vector[CFD] = injections.map(_._1)

  def spec(nMds: Int): DatasetSpec = DatasetSpec(
    name = s"movies-${nMds}md",
    schema = schema,
    target = TargetSpec("dramaRestricted", Vector("id"), Vector(Set(AttrRef("imdb_movies", "id")))),
    joinPairs = Synthetic.idJoins(rels, "imdb_", "omdb_"),
    mds = mds(nMds),
    cfds = cfds,
  )

  /** Stratified examples: positives are Drama∧R movies; negatives are half
    * Drama-but-not-R (hard negatives for a genre-only clause), half
    * non-Drama.
    */
  def examples(rows: Seq[MovieRow], nPos: Int, nNeg: Int, seed: Long): (Vector[Example], Vector[Example]) = {
    def byHash(xs: Seq[MovieRow]): Seq[MovieRow] = xs.sortBy(r => Rnd.hash(seed, r.id, 99))
    val pos      = byHash(rows.filter(_.label)).take(nPos)
    val dramaNeg = byHash(rows.filter(r => r.genre == "Drama" && !r.label)).take(nNeg / 2)
    val otherNeg = byHash(rows.filter(r => r.genre != "Drama")).take(nNeg - dramaNeg.length)
    (
      pos.map(r => Example("dramaRestricted", Vector(r.imdbId), positive = true)).toVector,
      (dramaNeg ++ otherNeg).map(r => Example("dramaRestricted", Vector(r.imdbId), positive = false)).toVector,
    )
  }

  /** Inject CFD violations at rate `p` (paper Sec. 6.1.2). */
  def injected(frames: Map[String, DataFrame], p: Double, seed: Long): Map[String, DataFrame] =
    Inject.all(frames, injections, p, seed)
}
