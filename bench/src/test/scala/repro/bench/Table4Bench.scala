package repro.bench

import repro.SparkSpec
import repro.exp.Tables

/** Reproduces paper Table 4: F1 and learning time of Castor-NoMD /
  * Castor-Exact / Castor-Clean vs DLearn (k_m ∈ {2,5,10}) over the four
  * MD-only dataset configurations. The assertions check the paper's *shape*:
  * DLearn beats every baseline; NoMD is the weakest (and 0 on papers).
  */
class Table4Bench extends SparkSpec {
  test("Table 4: learning over heterogeneous data with MDs") {
    val rows = Tables.table4(spark)
    rows.foreach(r => info(f"${r.dataset}%-12s ${r.system}%-12s F1=${r.r.f1}%.2f time=${r.r.timeMin}%.2fm"))

    def f1(ds: String, sys: String): Double =
      rows.find(r => r.dataset == ds && r.system == sys).get.r.f1
    def bestDlearn(ds: String): Double =
      rows.filter(r => r.dataset == ds && r.system.startsWith("DLearn")).map(_.r.f1).max

    for (ds <- Seq("movies-1md", "movies-3md", "products", "papers")) {
      assert(bestDlearn(ds) > f1(ds, "Castor-NoMD"), s"$ds: DLearn must beat NoMD")
      assert(bestDlearn(ds) >= f1(ds, "Castor-Exact") - 0.02, s"$ds: DLearn must match/beat Exact")
      assert(bestDlearn(ds) >= f1(ds, "Castor-Clean") - 0.02, s"$ds: DLearn must match/beat Clean")
    }
    assert(f1("papers", "Castor-NoMD") == 0.0, "papers NoMD learns nothing (paper: F1=0)")
    assert(f1("movies-3md", "Castor-Exact") > f1("movies-1md", "Castor-Exact"),
      "exact name MDs help Castor-Exact (paper: 0.59 → 0.82)")
  }
}
