package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.Tables

/** Shared session bootstrap for the spark-submit entrypoints (one per paper
  * table). Usage: `spark-submit --class repro.jobs.Table4Job repro.jar`.
  */
object JobSession {
  def local(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** Table 3: dataset statistics. */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.local("table3")
    try Tables.table3(spark) finally spark.stop()
  }
}

/** Table 4: Castor baselines vs DLearn (k_m sweep), MDs only. */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.local("table4")
    try Tables.table4(spark) finally spark.stop()
  }
}

/** Table 5: DLearn-CFD vs DLearn-Repaired under CFD-violation injection. */
object Table5Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.local("table5")
    try Tables.table5(spark) finally spark.stop()
  }
}

/** Table 6: training-set size scaling. */
object Table6Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.local("table6")
    try Tables.table6(spark) finally spark.stop()
  }
}

/** Table 7: effect of the number of bottom-clause iterations d. */
object Table7Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.local("table7")
    try Tables.table7(spark) finally spark.stop()
  }
}
