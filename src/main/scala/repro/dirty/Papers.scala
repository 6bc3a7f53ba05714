package repro.dirty

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._

import repro.core.constraints.{CFD, MD}
import repro.core.db._

/** One hidden paper entity and its DBLP / Google Scholar renderings. */
final case class PaperRow(
    id: Long,
    dId: String,
    gsId: String,
    titleD: String,
    titleS: String,
    venueD: String,
    venueS: String,
    year: Int,
    authorsD: Seq[String],
    authorsS: Seq[String],
)

/** Synthetic DBLP+Google Scholar analog (DESIGN.md §3). Target:
  * `gsPaperYear(gsId, year)` — arity 2; the publication year exists *only* on
  * the DBLP side, so without the title/venue MDs the head's `year` variable
  * can never be usefully bound (paper: Castor-NoMD F1 = 0). Scholar author
  * names are always abbreviated, so authors give no exact cross-database
  * join. Two MDs: titles and venues.
  */
object Papers {

  // Generator constants (DESIGN.md §3).
  private val familyFrac         = 0.45 // share of id triples that are paper versions
  private val identicalTitleFrac = 0.25 // Scholar title rendered exactly as DBLP's

  private val venueNames    = Vector.tabulate(25)(i => Words.word(4000 + i))
  private val paperVariants = Vector("revisited", "extended", "part two", "demo")

  /** Paper `id` of a population of `n` (the author pool scales with `n`),
    * generated from `seed`.
    */
  def row(n: Int, seed: Long)(id: Long): PaperRow = {
    val s       = seed
    val groupId = id / 3
    val inFam   = Rnd.double(s, groupId, 1) < familyFrac
    val baseKey = if (inFam) groupId else 3000000L + id
    val w       = Vector.tabulate(4)(k => Words.titleWord(baseKey * 4 + k, s))
    val base    = w.mkString(" ")
    val titleD0 = if (inFam) base + " " + paperVariants((id % 3).toInt) else base

    val c = Rnd.double(s, id, 2)
    val titleS0 =
      if (c < identicalTitleFrac) titleD0
      else if (c < identicalTitleFrac + 0.15) s"$titleD0 abstract"
      else if (c < identicalTitleFrac + 0.45) {
        // Version marker dropped: ambiguous with the paper's other versions.
        if (inFam) base else w.take(3).mkString(" ")
      } else if (c < identicalTitleFrac + 0.60)
        (Vector(w(1), w(0), w(2), w(3)) ++ (if (inFam) Vector(paperVariants((id % 3).toInt)) else Vector.empty)).mkString(" ")
      else Words.typo(titleD0, Rnd.hash(s, id, 4))

    val venue  = venueNames(Rnd.int(venueNames.length, s, id, 5))
    val vs     = Rnd.double(s, id, 6)
    val venueS =
      if (vs < 0.40) venue
      else if (vs < 0.70) s"proc of $venue"
      else s"$venue conf"

    val year    = 1995 + Rnd.int(25, s, id, 7)
    val nAuth   = math.max(4, (n * 1.2).toInt)
    val authors = Vector.tabulate(2 + Rnd.int(2, s, id, 8))(j => Words.person(200000 + Rnd.int(nAuth, s, id, 20 + j), s))

    PaperRow(
      id = id,
      dId = s"d$id",
      gsId = s"gs$id",
      titleD = titleD0,
      titleS = titleS0,
      venueD = venue,
      venueS = venueS,
      year = year,
      authorsD = authors,
      authorsS = authors.map(Words.abbrevFirst), // Scholar always abbreviates
    )
  }

  /** The four relations (2 DBLP + 2 Scholar). */
  private val rels: Vector[Rel] = Vector(
    Rel("dblp_paper", Set.empty, "id" -> col("dId"), "title" -> col("titleD"), "venue" -> col("venueD"), "year" -> col("year").cast("string")),
    Rel("dblp_authors", Set.empty, "id" -> col("dId"), "author" -> explode(col("authorsD"))),
    Rel("scholar_paper", Set.empty, "id" -> col("gsId"), "title" -> col("titleS"), "venue" -> col("venueS")),
    Rel("scholar_authors", Set.empty, "id" -> col("gsId"), "author" -> explode(col("authorsS"))),
  )
  val schema: Schema = Schema(rels.map(_.spec))
  def frames(rows: Dataset[PaperRow]): Map[String, DataFrame] = Synthetic.frames(rels, rows)

  val mds: Vector[MD] = Vector(
    MD(AttrRef("dblp_paper", "title"), AttrRef("scholar_paper", "title")),
    MD(AttrRef("dblp_paper", "venue"), AttrRef("scholar_paper", "venue")),
  )

  /** 2 CFDs (paper Sec. 6.1.2: "id determines title in Google Scholar"),
    * each with the alteration that injects its violations.
    */
  private val injections: Vector[(CFD, Inject.Alter)] = Vector(
    CFD.fd("scholar_paper", Vector("id"), "title") -> Inject.scramble,
    CFD.fd("dblp_paper", Vector("id"), "year")     -> Inject.bumpInt(3),
  )
  val cfds: Vector[CFD] = injections.map(_._1)

  val spec: DatasetSpec = DatasetSpec(
    name = "papers",
    schema = schema,
    target = TargetSpec(
      "gsPaperYear",
      Vector("gsId", "year"),
      Vector(
        Set(AttrRef("scholar_paper", "id"), AttrRef("scholar_authors", "id")),
        Set.empty, // year is output-only: bound through the body, never searched
      ),
    ),
    joinPairs = Synthetic.idJoins(rels, "dblp_", "scholar_"),
    mds = mds,
    cfds = cfds,
  )

  /** Positives: (gsId, true year). Negatives: (gsId, wrong year) with the
    * wrong year drawn near the true one (and inside the year domain), so an
    * unlinked `dblp_paper(_,_,_,y)` clause covers them.
    */
  def examples(rows: Seq[PaperRow], nPos: Int, nNeg: Int, seed: Long): (Vector[Example], Vector[Example]) = {
    val byHash = rows.sortBy(r => Rnd.hash(seed, r.id, 99))
    val pos    = byHash.take(nPos)
    val negEx = byHash.take(math.max(nPos, nNeg)).flatMap { r =>
      Seq(1, 2, 3).map { k =>
        val delta   = 1 + Rnd.int(4, seed, r.id, 100L + k)
        val wrong   = if (Rnd.double(seed, r.id, 200L + k) < 0.5) r.year - delta else r.year + delta
        val clamped = math.max(1995, math.min(2019, wrong))
        val fixed   = if (clamped == r.year) (if (r.year < 2019) r.year + 1 else r.year - 1) else clamped
        Example("gsPaperYear", Vector(r.gsId, fixed.toString), positive = false)
      }
    }.distinct.take(nNeg)
    (
      pos.map(r => Example("gsPaperYear", Vector(r.gsId, r.year.toString), positive = true)).toVector,
      negEx.toVector,
    )
  }

  def injected(frames: Map[String, DataFrame], p: Double, seed: Long): Map[String, DataFrame] =
    Inject.all(frames, injections, p, seed)
}
