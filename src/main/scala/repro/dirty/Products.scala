package repro.dirty

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._

import repro.core.constraints.{CFD, MD}
import repro.core.db._

/** One hidden product entity and its Walmart / Amazon renderings. */
final case class ProductRow(
    id: Long,
    wId: String,
    aId: String,
    upc: String,
    brand: String,
    titleW: String,
    titleA: String,
    group: String,
    category: String,
    price: String,
    label: Boolean,
)

/** Synthetic Walmart+Amazon analog (DESIGN.md §3). Target:
  * `upcOfComputersAccessories(upc)` — the `upc` lives only on the Walmart
  * side, the `category` only on the Amazon side (paper Sec. 6.1.1). The
  * Walmart `groupname` is a coarse noisy proxy of the category, so MD-less
  * learners top out at a low-precision group clause; the brand "tribeca" is
  * purely ComputersAccessories, reproducing the paper's second learned
  * clause. One MD on product titles.
  */
object Products {

  // Generator constants (DESIGN.md §3).
  private val familyFrac         = 0.60 // share of id triples that are product lines
  private val identicalTitleFrac = 0.25 // Amazon title rendered exactly as Walmart's
  private val pCA                = 0.30 // P(ComputersAccessories) outside the tribeca brand

  private val categories = Vector("ComputersAccessories", "Electronics", "HomeAudio", "Cameras", "CellPhones")
  private val groups     = Vector("Electronics - General", "Home", "Photo", "Mobile")
  private val priceBands = Vector("$0-10", "$10-25", "$25-50", "$50-100", "$100+")
  private val variants   = Vector("8 gb", "16 gb", "32 gb", "64 gb")

  /** Product `id`, generated from `seed`. */
  def row(seed: Long)(id: Long): ProductRow = {
    val s       = seed
    val groupId = id / 3
    val inFam   = Rnd.double(s, groupId, 1) < familyFrac
    val baseKey = if (inFam) groupId else 2000000L + id
    val w       = Vector.tabulate(3)(k => Words.titleWord(baseKey * 3 + k, s))
    val base    = w.mkString(" ")
    val titleW0 = if (inFam) base + " " + variants((id % 3).toInt) else base

    val c = Rnd.double(s, id, 2)
    val titleA0 =
      if (c < identicalTitleFrac) titleW0
      else if (c < identicalTitleFrac + 0.15) s"$titleW0 new"
      else if (c < identicalTitleFrac + 0.50) {
        // Capacity variant dropped: ambiguous with every product-line sibling
        // (top-1 resolution commits to an arbitrary one).
        if (inFam) base else w.take(2).mkString(" ")
      } else if (c < identicalTitleFrac + 0.60)
        (Vector(w(1), w(0), w(2)) ++ (if (inFam) Vector(variants((id % 3).toInt)) else Vector.empty)).mkString(" ")
      else Words.typo(titleW0, Rnd.hash(s, id, 4))

    val brandPool = Vector.tabulate(50)(i => Words.word(3000 + i))
    val tribeca   = Rnd.double(s, id, 5) < 0.05
    val brand     = if (tribeca) "tribeca" else brandPool(Rnd.int(brandPool.length, s, id, 6))
    val category =
      if (tribeca) "ComputersAccessories"
      else if (Rnd.double(s, id, 7) < pCA) "ComputersAccessories"
      else categories(1 + Rnd.int(categories.length - 1, s, id, 8))
    // Noisy coarse proxy: CA products are usually "Electronics - General",
    // but so are many Electronics products.
    val group =
      if (category == "ComputersAccessories") { if (Rnd.double(s, id, 9) < 0.80) groups(0) else Rnd.pick(groups.tail, s, id, 10) }
      else if (category == "Electronics") { if (Rnd.double(s, id, 9) < 0.60) groups(0) else Rnd.pick(groups.tail, s, id, 10) }
      else { if (Rnd.double(s, id, 9) < 0.15) groups(0) else Rnd.pick(groups.tail, s, id, 10) }

    ProductRow(
      id = id,
      wId = s"w$id",
      aId = s"a$id",
      upc = s"upc$id",
      brand = brand,
      titleW = titleW0,
      titleA = titleA0,
      group = group,
      category = category,
      price = priceBands(Rnd.int(priceBands.length, s, id, 11)),
      label = category == "ComputersAccessories",
    )
  }

  /** The nine relations (5 Walmart + 4 Amazon). `brand` is a *join*
    * attribute in walmart_ids (the paper's learned clause binds it as a
    * variable) and a *value* attribute in walmart_brand (the paper's Tribeca
    * clause uses that relation) — embedding a constant in the key literal
    * would make it un-generalizable by literal dropping.
    */
  private val rels: Vector[Rel] = Vector(
    Rel("walmart_ids", Set.empty, "id" -> col("wId"), "brand" -> col("brand"), "upc" -> col("upc")),
    Rel("walmart_brand", Set("brand"), "id" -> col("wId"), "brand" -> col("brand")),
    Rel("walmart_title", Set.empty, "id" -> col("wId"), "title" -> col("titleW")),
    Rel("walmart_groupname", Set("group"), "id" -> col("wId"), "group" -> col("group")),
    Rel("walmart_price", Set("price"), "id" -> col("wId"), "price" -> col("price")),
    Rel("amazon_title", Set.empty, "id" -> col("aId"), "title" -> col("titleA")),
    Rel("amazon_category", Set("category"), "id" -> col("aId"), "category" -> col("category")),
    Rel("amazon_listprice", Set("price"), "id" -> col("aId"), "price" -> col("price")),
    // brand is a join attribute here: the cross-database brand equality is
    // the precision anchor that rules out same-line siblings.
    Rel("amazon_brand", Set.empty, "id" -> col("aId"), "brand" -> col("brand")),
  )
  val schema: Schema = Schema(rels.map(_.spec))
  def frames(rows: Dataset[ProductRow]): Map[String, DataFrame] = Synthetic.frames(rels, rows)

  val mds: Vector[MD] = Vector(MD(AttrRef("walmart_title", "title"), AttrRef("amazon_title", "title")))

  /** 6 CFDs (paper Sec. 6.1.2), each with the alteration that injects its
    * violations.
    */
  private val injections: Vector[(CFD, Inject.Alter)] = Vector(
    CFD.fd("walmart_ids", Vector("id"), "upc")          -> Inject.suffix("x"),
    CFD.fd("walmart_title", Vector("id"), "title")      -> Inject.scramble,
    CFD.fd("walmart_groupname", Vector("id"), "group")  -> Inject.rotate(groups),
    CFD.fd("amazon_category", Vector("id"), "category") -> Inject.rotate(categories),
    CFD.fd("amazon_listprice", Vector("id"), "price")   -> Inject.rotate(priceBands),
    CFD.fd("amazon_brand", Vector("id"), "brand")       -> Inject.suffix("co"),
  )
  val cfds: Vector[CFD] = injections.map(_._1)

  val spec: DatasetSpec = DatasetSpec(
    name = "products",
    schema = schema,
    target = TargetSpec("upcOfComputersAccessories", Vector("upc"), Vector(Set(AttrRef("walmart_ids", "upc")))),
    joinPairs = Synthetic.idJoins(rels, "walmart_", "amazon_"),
    mds = mds,
    cfds = cfds,
  )

  def examples(rows: Seq[ProductRow], nPos: Int, nNeg: Int, seed: Long): (Vector[Example], Vector[Example]) = {
    def byHash(xs: Seq[ProductRow]): Seq[ProductRow] = xs.sortBy(r => Rnd.hash(seed, r.id, 99))
    val pos = byHash(rows.filter(_.label)).take(nPos)
    // Hard negatives: non-CA products whose groupname is "Electronics - General".
    val hardNeg  = byHash(rows.filter(r => !r.label && r.group == groups(0))).take(nNeg / 2)
    val otherNeg = byHash(rows.filter(r => !r.label && r.group != groups(0))).take(nNeg - hardNeg.length)
    (
      pos.map(r => Example("upcOfComputersAccessories", Vector(r.upc), positive = true)).toVector,
      (hardNeg ++ otherNeg).map(r => Example("upcOfComputersAccessories", Vector(r.upc), positive = false)).toVector,
    )
  }

  def injected(frames: Map[String, DataFrame], p: Double, seed: Long): Map[String, DataFrame] =
    Inject.all(frames, injections, p, seed)
}
