package repro.spark

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

import org.apache.spark.sql.catalyst.expressions.Murmur3HashFunction
import org.apache.spark.sql.types.StringType
import org.apache.spark.unsafe.types.UTF8String
import repro.core.constraints.CFD
import repro.core.db.{Database, RelSpec}

/** Minimal CFD repair of a database — the preprocessing step of the
  * DLearn-Repaired baseline (paper Sec. 6.1.3: "we obtain this repair using
  * the minimal repair method"). It runs on the driver, over the collected
  * relations.
  *
  * For each LHS group matching the pattern, conflicting RHS values are
  * unified to one canonical value: the RHS pattern constant when the CFD has
  * one, otherwise an *arbitrary* existing value of the group (deterministic
  * via a hash order — crucially, not necessarily the correct one, which is
  * exactly why the paper's repaired baseline loses accuracy as violations
  * grow). Tuples that become identical are deduplicated (value modification,
  * never tuple deletion, per paper Sec. 2.3). Tuples keep their input order.
  */
object Repair {

  /** Spark SQL's `abs(hash(v))`: Murmur3 with seed 42, to which null hashes.
    * A conflicting group's value with the smallest one is canonical.
    */
  private def hashOrder(v: String): Int =
    math.abs(Murmur3HashFunction.hash(UTF8String.fromString(v), StringType, 42L).toInt)

  /** Repair every CFD over its relation, in rounds: a repair of one CFD may
    * induce a violation of another (paper Sec. 4.1), so rounds repeat until
    * one changes nothing, at most three. `db` itself when nothing changes.
    */
  def repair(db: Database, cfds: Vector[CFD]): Database = {
    var data    = db.data
    var changed = true
    var round   = 0
    while (changed && round < 3) {
      changed = false
      for (cfd <- cfds; tuples <- data.get(cfd.rel); out <- repairOne(tuples, cfd, db.schema(cfd.rel))) {
        data = data.updated(cfd.rel, out)
        changed = true
      }
      round += 1
    }
    if (data eq db.data) db else new Database(db.schema, data)
  }

  /** One CFD over its relation: each violating tuple's RHS rewritten to its
    * canonical value, then repeated tuples dropped, the first kept. `None`
    * when that changes nothing.
    */
  private def repairOne(tuples: IndexedSeq[Array[String]], cfd: CFD, spec: RelSpec): Option[IndexedSeq[Array[String]]] = {
    val li = cfd.lhsIdx(spec)
    val r  = cfd.rhsIdx(spec)
    // The RHS value a tuple must take, if it violates the CFD.
    val target: Array[String] => Option[String] = cfd.rhsPattern match {
      case Some(c) => t => Option.when(cfd.lhsMatches(spec, t) && !cfd.rhsMatches(t(r)))(c)
      case None =>
        // a group conflicts when it holds two distinct non-null values
        val canon = tuples.filter(cfd.lhsMatches(spec, _)).groupMap(t => li.map(t(_)))(_(r)).flatMap { case (k, vs) =>
          val ds = vs.distinct
          Option.when(ds.count(_ != null) > 1)(k -> ds.minBy(hashOrder))
        }
        t => canon.get(li.map(t(_)))
    }
    val seen = mutable.HashSet.empty[ArraySeq[String]]
    val out = tuples.iterator.map { t =>
      target(t) match {
        case Some(v) if v != t(r) => t.updated(r, v)
        case _                    => t
      }
    }.filter(u => seen.add(ArraySeq.unsafeWrapArray(u))).toVector
    if (out.corresponds(tuples)(_ eq _)) None else Some(out)
  }
}
