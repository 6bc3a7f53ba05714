package repro.bench

import repro.SparkSpec
import repro.exp.Tables

/** Reproduces paper Table 7: effect of the number of bottom-clause BFS
  * iterations d. Shape: F1 is low while the OMDB-side evidence is out of
  * reach, jumps once the rating relation becomes reachable, then plateaus
  * while time keeps growing. (Our schema is one join shallower than the real
  * IMDB+OMDB, so the jump is at d=3 instead of the paper's d=4.)
  */
class Table7Bench extends SparkSpec {
  test("Table 7: effect of the number of iterations d") {
    val rows = Tables.table7(spark)
    rows.foreach(r => info(f"d=${r.d} F1=${r.f1}%.2f time=${r.timeMin}%.2fm"))

    val byD = rows.map(r => r.d -> r).toMap
    assert(byD(3).f1 > byD(2).f1 + 0.1, "F1 must jump when the rating hop becomes reachable")
    assert(byD(4).f1 >= byD(3).f1 - 0.08, "deeper search must not collapse F1")
    assert(byD(5).f1 >= byD(3).f1 - 0.10, "deeper search must not collapse F1")
    assert(byD(5).timeMin > byD(2).timeMin, "time grows with d")
  }
}
