package repro.dirty

import scala.reflect.runtime.universe.TypeTag

import org.apache.spark.sql.{Column, DataFrame, Dataset, SparkSession}

import repro.core.db.{AttrRef, RelSpec}

/** One generated relation, declared once: its name, its constant-mode
  * attributes, and each attribute with the column over the generator's rows
  * that fills it, in schema order.
  */
final case class Rel(name: String, constAttrs: Set[String], cols: (String, Column)*) {
  def spec: RelSpec = RelSpec(name, cols.map(_._1).toVector, constAttrs)
}

/** What the three synthetic dataset pairs share. */
object Synthetic {

  /** Entities `0 until n`, each generated by `row` from its id. */
  def rows[A <: Product: TypeTag](spark: SparkSession, n: Int)(row: Long => A): Dataset[A] = {
    import spark.implicits._
    spark.range(n.toLong).map(id => row(id))
  }

  /** Each relation's frame over the generator's rows. A column that already
    * has its attribute's name is selected unaliased, so the plan carries no
    * redundant alias.
    */
  def frames(rels: Vector[Rel], rows: Dataset[_]): Map[String, DataFrame] =
    rels.map(r => r.name -> rows.select(r.cols.map { case (a, c) => if (c.toString == a) c else c.as(a) }: _*)).toMap

  /** The exact joins on `id` between every two relations of one database,
    * database by database; a database's relations are those whose names
    * start with its prefix, in `rels` order.
    */
  def idJoins(rels: Vector[Rel], dbPrefixes: String*): Vector[(AttrRef, AttrRef)] =
    dbPrefixes.toVector.flatMap { db =>
      val ids = rels.collect { case r if r.name.startsWith(db) => AttrRef(r.name, "id") }
      for { i <- ids.indices; j <- (i + 1) until ids.length } yield (ids(i), ids(j))
    }
}
