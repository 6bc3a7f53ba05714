package repro.core.db

import org.apache.spark.sql.DataFrame

/** A (relation, attribute) coordinate in a schema. */
final case class AttrRef(rel: String, attr: String) {
  def key: String = s"$rel.$attr"
}

/** Relation declaration.
  *
  * @param name       relation name
  * @param attrs      attribute names, in column order
  * @param constAttrs attributes whose values stay constants in clauses
  *                   (value attributes: genre, rating, category, ...); all
  *                   other attributes are join attributes and become
  *                   variables during bottom-clause variabilization — the
  *                   mode/type discipline of Castor-style learners.
  */
final case class RelSpec(name: String, attrs: Vector[String], constAttrs: Set[String]) {
  require(constAttrs.subsetOf(attrs.toSet), s"unknown constAttrs in $name")
  def arity: Int                 = attrs.length
  def attrIdx(attr: String): Int = {
    val i = attrs.indexOf(attr)
    require(i >= 0, s"relation $name has no attribute $attr")
    i
  }
  def isConstAttr(idx: Int): Boolean = constAttrs.contains(attrs(idx))
}

/** Database schema: the set of relation declarations. */
final case class Schema(rels: Vector[RelSpec]) {
  private val byName: Map[String, RelSpec] = rels.map(r => r.name -> r).toMap
  def apply(name: String): RelSpec =
    byName.getOrElse(name, throw new NoSuchElementException(s"relation $name"))
  def contains(name: String): Boolean = byName.contains(name)
}

/** The target relation to learn.
  *
  * @param bindings per head-argument: the attributes the argument's constant
  *                 may expand into via *exact* lookup (the example's anchor
  *                 joins, e.g. `upc` → `walmart_ids.upc`). These play the role
  *                 of the paper's target-relation join information.
  */
final case class TargetSpec(name: String, attrs: Vector[String], bindings: Vector[Set[AttrRef]]) {
  def arity: Int = attrs.length
}

/** A training/test example: a ground target tuple plus its label. */
final case class Example(pred: String, args: Vector[String], positive: Boolean) {
  def key: String = args.mkString("|")
}

/** In-memory indexed instance of a schema, built by collecting the Spark
  * DataFrames of each relation. This mirrors the paper's use of a main-memory
  * RDBMS (VoltDB) for index lookups during bottom-clause construction; the
  * scaled relations (tens of thousands of tuples) fit comfortably in the
  * driver.
  */
final class Database(val schema: Schema, val data: Map[String, IndexedSeq[Array[String]]]) {

  /** (relation, attribute index) → value → tuple indices. */
  private val index: Map[(String, Int), Map[String, Array[Int]]] = {
    val b = Map.newBuilder[(String, Int), Map[String, Array[Int]]]
    for (spec <- schema.rels; tuples = data.getOrElse(spec.name, IndexedSeq.empty); i <- 0 until spec.arity) {
      val m = new scala.collection.mutable.HashMap[String, scala.collection.mutable.ArrayBuffer[Int]]
      var t = 0
      while (t < tuples.length) {
        val v = tuples(t)(i)
        if (v != null) m.getOrElseUpdate(v, new scala.collection.mutable.ArrayBuffer[Int]) += t
        t += 1
      }
      b += ((spec.name, i) -> m.map { case (k, vs) => k -> vs.toArray }.toMap)
    }
    b.result()
  }

  def tuples(rel: String): IndexedSeq[Array[String]] = data.getOrElse(rel, IndexedSeq.empty)

  /** Tuple indices of `rel` whose attribute `attrIdx` equals `value`. */
  def lookup(rel: String, attrIdx: Int, value: String): Array[Int] =
    index.get((rel, attrIdx)).flatMap(_.get(value)).getOrElse(Array.empty)

  /** Distinct values of an attribute (for similarity-index construction). */
  def domain(ref: AttrRef): Iterable[String] = {
    val i = schema(ref.rel).attrIdx(ref.attr)
    index.getOrElse((ref.rel, i), Map.empty).keys
  }

  def tupleCount: Long = data.valuesIterator.map(_.size.toLong).sum
}

object Database {

  /** Collect Spark DataFrames (one per relation, columns in schema order)
    * into an indexed in-memory database. All values are canonicalized to
    * strings; nulls are preserved as nulls (and never indexed).
    */
  def fromFrames(schema: Schema, frames: Map[String, DataFrame]): Database = {
    val data = schema.rels.map { spec =>
      val df = frames.getOrElse(
        spec.name,
        throw new IllegalArgumentException(s"missing frame for relation ${spec.name}")
      )
      val cols  = spec.attrs.map(df.col)
      val rows  = df.select(cols: _*).collect()
      val tuples: IndexedSeq[Array[String]] = rows.map { r =>
        Array.tabulate(spec.arity)(i => Option(r.get(i)).map(_.toString).orNull)
      }.toIndexedSeq
      spec.name -> tuples
    }.toMap
    new Database(schema, data)
  }
}

/** Declarative description of a learning task over a pair of dirty databases:
  * schema, target, allowed exact-join attribute pairs (intra-database keys),
  * MDs and CFDs.
  */
final case class DatasetSpec(
    name: String,
    schema: Schema,
    target: TargetSpec,
    joinPairs: Vector[(AttrRef, AttrRef)],
    mds: Vector[repro.core.constraints.MD],
    cfds: Vector[repro.core.constraints.CFD],
) {

  /** Symmetric-closure join graph: where may a constant seen at `ref` be
    * looked up exactly? Self-join of an attribute with itself is implicit for
    * key attributes (a value found at a key attribute re-finds its own tuples
    * plus other relations keyed by it).
    */
  lazy val joinGraph: Map[AttrRef, Vector[AttrRef]] = {
    val m = new scala.collection.mutable.HashMap[AttrRef, Vector[AttrRef]].withDefaultValue(Vector.empty)
    for ((a, b) <- joinPairs) {
      m(a) = m(a) :+ b
      m(b) = m(b) :+ a
    }
    m.toMap.withDefaultValue(Vector.empty)
  }

  /** The join graph extended with the MD attribute pairs joined *exactly* —
    * the Castor-Exact configuration.
    */
  def withExactMdJoins: DatasetSpec =
    copy(joinPairs = joinPairs ++ mds.flatMap(_.pairs))
}
