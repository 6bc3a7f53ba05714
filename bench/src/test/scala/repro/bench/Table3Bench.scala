package repro.bench

import repro.SparkSpec
import repro.exp.Tables

/** Reproduces paper Table 3: dataset statistics (#R, #T, #P, #N). */
class Table3Bench extends SparkSpec {
  test("Table 3: dataset statistics") {
    val lines = Tables.table3(spark)
    lines.foreach(info(_))
    assert(lines.size == 4)
    assert(lines.exists(_.contains("movies")))
    assert(lines.exists(_.contains("products")))
    assert(lines.exists(_.contains("papers")))
  }
}
