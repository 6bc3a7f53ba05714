package repro

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import repro.core.db.{Database, RelSpec}

/** Relations moved between a collected [[Database]] and DataFrames, for
  * checking driver-side code against Spark or DuckDB.
  */
object Frames {

  /** One relation's tuples as a DataFrame of string columns, in order. */
  def of(spark: SparkSession, spec: RelSpec, tuples: Seq[Array[String]]): DataFrame =
    spark.createDataFrame(
      tuples.map(t => Row.fromSeq(t.toSeq)).asJava,
      StructType(spec.attrs.map(StructField(_, StringType))),
    )

  /** Every relation of `db` as a DataFrame. */
  def of(spark: SparkSession, db: Database): Map[String, DataFrame] =
    db.schema.rels.map(r => r.name -> of(spark, r, db.tuples(r.name))).toMap

  /** A relation as a multiset of tuples. */
  def bag(tuples: Seq[Array[String]]): Map[Seq[String], Int] =
    tuples.groupMapReduce(_.toSeq)(_ => 1)(_ + _)
}
