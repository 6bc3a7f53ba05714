package repro.dirty

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.constraints.CFD

/** CFD-violation injection (paper Sec. 6.1.2: "we inject each dataset with
  * varying proportions of CFD violations p randomly ... p of 5% means that 5%
  * of tuples in each relation violate at least one CFD").
  *
  * For a CFD (X → A) over relation R, a violating tuple is produced by
  * duplicating an existing tuple with a conflicting RHS value, so both the
  * original and the duplicate violate the CFD (same X, different A).
  * A dataset declares each of its CFDs with the alteration that breaks it,
  * and [[all]] injects them in that order.
  */
object Inject {

  /** Alteration functions — pure (value, tupleHash) → conflicting value. */
  type Alter = (String, Long) => String

  /** Rotate within a finite domain (always produces a different value). */
  def rotate(domain: IndexedSeq[String]): Alter = (v, h) => {
    val i = domain.indexOf(v)
    if (i < 0) domain(Math.floorMod(h, domain.length.toLong).toInt)
    else domain((i + 1 + Math.floorMod(h, (domain.length - 1).toLong).toInt) % domain.length)
  }

  /** Make a string value unrecognizable (reversed) — models a corrupted
    * entity name that no longer matches anything by similarity.
    */
  val scramble: Alter = (v, _) => if (v == null) "zzz" else v.reverse

  /** Append a fixed suffix. */
  def suffix(sfx: String): Alter = (v, _) => v + sfx

  /** Bump an integer-valued string by 1..k. */
  def bumpInt(k: Int): Alter = (v, h) =>
    try { (v.toInt + 1 + Math.floorMod(h, k.toLong).toInt).toString }
    catch { case _: NumberFormatException => v + "x" }

  /** Add conflicting duplicates for fraction `p` of tuples, deterministically
    * in `seed`. The RHS column `rhsCol` of each selected tuple's duplicate is
    * altered by `alter`.
    */
  def violations(df: DataFrame, rhsCol: String, p: Double, seed: Long, alter: Alter): DataFrame = {
    if (p <= 0) return df
    val alterUdf = udf((v: String, h: Long) => alter(v, h))
    val hashed = df.withColumn("__h", abs(xxhash64(df.columns.toIndexedSeq.map(col) :+ lit(seed): _*)))
    val dupes = hashed
      .filter(col("__h") % 10000 < lit((p * 10000).toLong))
      .withColumn(rhsCol, alterUdf(col(rhsCol), col("__h")))
      .drop("__h")
    df.unionByName(dupes)
  }

  /** Inject the `i`-th CFD's violations into its relation with seed
    * `seed + i`, for every `(CFD, Alter)` pair in order. CFDs over one
    * relation stack.
    */
  def all(frames: Map[String, DataFrame], cfds: Seq[(CFD, Alter)], p: Double, seed: Long): Map[String, DataFrame] =
    cfds.zipWithIndex.foldLeft(frames) { case (fr, ((cfd, alter), i)) =>
      fr.updated(cfd.rel, violations(fr(cfd.rel), cfd.rhs, p, seed + i, alter))
    }
}
