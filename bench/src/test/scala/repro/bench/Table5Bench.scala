package repro.bench

import repro.SparkSpec
import repro.exp.Tables

/** Reproduces paper Table 5: DLearn-CFD vs DLearn-Repaired under injected CFD
  * violations p ∈ {0.05, 0.10, 0.20}. Shape: CFD-aware learning is (almost)
  * equal or better on F1, and both degrade as p grows.
  */
class Table5Bench extends SparkSpec {
  test("Table 5: learning with MDs and CFD violations") {
    val rows = Tables.table5(spark)
    rows.foreach(r => info(f"${r.dataset}%-12s ${r.system}%-16s p=${r.p}%.2f F1=${r.r.f1}%.2f time=${r.r.timeMin}%.2fm"))

    def f1(ds: String, sys: String, p: Double): Double =
      rows.find(r => r.dataset == ds && r.system == sys && r.p == p).get.r.f1

    // Across all (dataset, p) cells, DLearn-CFD wins or nearly ties on average
    // and strictly wins at the highest violation rate for most datasets.
    val cells = for (ds <- Seq("movies-3md", "products", "papers"); p <- Seq(0.05, 0.10, 0.20))
      yield (f1(ds, "DLearn-CFD", p), f1(ds, "DLearn-Repaired", p))
    val avgCfd = cells.map(_._1).sum / cells.size
    val avgRep = cells.map(_._2).sum / cells.size
    assert(avgCfd > avgRep, f"mean CFD F1 $avgCfd%.3f must beat mean Repaired $avgRep%.3f")
    val winsAtP20 = Seq("movies-3md", "products", "papers")
      .count(ds => f1(ds, "DLearn-CFD", 0.20) >= f1(ds, "DLearn-Repaired", 0.20))
    assert(winsAtP20 >= 2, "CFD-aware learning wins at p=0.20 on most datasets")
  }
}
