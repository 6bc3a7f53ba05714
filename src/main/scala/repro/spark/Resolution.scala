package repro.spark

import repro.core.constraints.MD
import repro.core.db.Database

/** Castor-Clean preprocessing (paper Sec. 6.1.3): "resolve the
  * heterogeneities between entity names in attributes that appear in an MD by
  * matching each entity in one database with the most similar entity in the
  * other database ... then learn over the unified and clean database."
  *
  * For each MD pair (A, B), every distinct value of B is replaced by its
  * top-1 most-similar value of A (when the similarity clears the threshold),
  * using the same similarity operator as DLearn. Because top-1 matching
  * commits to a single alternative, near-duplicate entities (the paper's
  * Star Wars episodes) can be resolved to the wrong entity — the systematic
  * error that lets DLearn beat this baseline.
  */
object Resolution {

  /** Resolve all MD attribute pairs, in order, on the driver: each second-side
    * (B) value is replaced in place by its best first-side (A) match, the
    * top-1 list of [[SimJoin.topKJoin]] at k = 1 (score descending, then the
    * smaller A value). Each pair sees the values the pairs before it wrote.
    * Every relation keeps its tuples and their order; `db` is not modified.
    */
  def resolve(db: Database, mds: Vector[MD]): Database = {
    var data = db.data
    for (md <- mds; (refA, refB) <- md.pairs) {
      val ia   = db.schema(refA.rel).attrIdx(refA.attr)
      val ib   = db.schema(refB.rel).attrIdx(refB.attr)
      val top1 = SimJoin.topKJoin(data(refA.rel).view.map(_(ia)), data(refB.rel).view.map(_(ib)), 1)._2
      data = data.updated(refB.rel, data(refB.rel).map { t =>
        top1.get(t(ib)).fold(t)(ms => t.updated(ib, ms.head.value))
      })
    }
    new Database(db.schema, data)
  }
}
