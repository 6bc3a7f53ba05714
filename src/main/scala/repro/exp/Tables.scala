package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.learn._
import repro.dirty.{Movies, Papers, Products, Synthetic}

/** Experiment sizes. `bench` approximates the paper's example counts at a
  * reduced database scale; `tiny` keeps unit/integration tests fast.
  */
final case class ExpScale(
    nMovies: Int,
    nProducts: Int,
    nPapers: Int,
    moviesEx: (Int, Int),
    productsEx: (Int, Int),
    papersEx: (Int, Int),
)

object ExpScale {
  /** Benchmark scale: paper example counts, scaled-down databases. */
  val bench = ExpScale(
    nMovies = 2500, nProducts = 1500, nPapers = 1800,
    moviesEx = (100, 200), productsEx = (77, 154), papersEx = (150, 300),
  )
  /** Test scale for integration tests. */
  val tiny = ExpScale(
    nMovies = 400, nProducts = 300, nPapers = 300,
    moviesEx = (30, 60), productsEx = (25, 50), papersEx = (25, 50),
  )
  /** Table 5 scale: the CFD-repair semantics multiply coverage-test cost, so
    * the databases are halved relative to `bench` (example counts unchanged).
    */
  val bench5 = ExpScale(
    nMovies = 1500, nProducts = 1200, nPapers = 1200,
    moviesEx = (100, 200), productsEx = (77, 154), papersEx = (150, 300),
  )
}

/** One reproduction runner per paper table. Each returns the formatted rows
  * it printed, so benchmark suites can both display and sanity-check them.
  * The `jobs/` entrypoints and the `bench/` suites both call a runner with
  * its defaults, so each table's scale is set here only.
  */
object Tables {

  /** The default learner configuration. Its only caller is the benchmark
    * harness (perfbench's `Workloads.params`); the runners below build their
    * own `LearnParams`.
    */
  val baseParams: LearnParams = LearnParams()

  // ---------------------------------------------------------------- tasks

  def moviesTask(spark: SparkSession, scale: ExpScale, nMds: Int, p: Double,
                 nEx: Option[(Int, Int)] = None, seed: Long = 42): TaskData = {
    val ds   = Synthetic.rows(spark, scale.nMovies)(Movies.row(scale.nMovies, seed))
    val rws  = ds.collect().toSeq
    val (np, nn) = nEx.getOrElse(scale.moviesEx)
    val (pos, neg) = Movies.examples(rws, np, nn, seed)
    // d = 4 as in the paper: the rating is 3 hops away via the title MD and
    // 4 hops via the cast/writer MDs (imdb_movies → imdb cast → omdb cast →
    // omdb rating).
    TaskData(s"movies-${nMds}md", Movies.spec(nMds), Movies.injected(Movies.frames(ds), p, seed), pos, neg, d = 4)
  }

  def productsTask(spark: SparkSession, scale: ExpScale, p: Double, seed: Long = 123): TaskData = {
    val ds  = Synthetic.rows(spark, scale.nProducts)(Products.row(seed))
    val rws = ds.collect().toSeq
    val (np, nn)   = scale.productsEx
    val (pos, neg) = Products.examples(rws, np, nn, seed)
    TaskData("products", Products.spec, Products.injected(Products.frames(ds), p, seed), pos, neg, d = 4)
  }

  def papersTask(spark: SparkSession, scale: ExpScale, p: Double, seed: Long = 777): TaskData = {
    val ds  = Synthetic.rows(spark, scale.nPapers)(Papers.row(scale.nPapers, seed))
    val rws = ds.collect().toSeq
    val (np, nn)   = scale.papersEx
    val (pos, neg) = Papers.examples(rws, np, nn, seed)
    TaskData("papers", Papers.spec, Papers.injected(Papers.frames(ds), p, seed), pos, neg, d = 3)
  }

  private def fmt(r: CvResult): String = f"F1=${r.f1}%.2f time=${r.timeMin}%.2fm"

  private def emit(lines: Seq[String]): Vector[String] = {
    lines.foreach(l => println("[table] " + l))
    lines.toVector
  }

  // ---------------------------------------------------------------- Table 3

  /** Dataset statistics (#relations, #tuples, #pos, #neg). */
  def table3(spark: SparkSession, scale: ExpScale = ExpScale.bench): Vector[String] = {
    val tasks = Seq(
      moviesTask(spark, scale, nMds = 3, p = 0.0),
      productsTask(spark, scale, p = 0.0),
      papersTask(spark, scale, p = 0.0),
    )
    emit(
      "Table 3 — dataset statistics" +:
        tasks.map { t =>
          val nT = t.frames.values.map(_.count()).sum
          f"${t.name}%-12s #R=${t.spec.schema.rels.size}%2d #T=$nT%7d #P=${t.pos.size}%4d #N=${t.neg.size}%4d"
        }
    )
  }

  // ---------------------------------------------------------------- Table 4

  final case class Row4(dataset: String, system: String, r: CvResult)

  /** Castor-NoMD / Exact / Clean vs DLearn k_m ∈ {2,5,10} over the four
    * MD-only configurations (p = 0).
    */
  def table4(spark: SparkSession, scale: ExpScale = ExpScale.bench,
             kms: Seq[Int] = Seq(2, 5, 10)): Vector[Row4] = {
    val tasks = Seq(
      moviesTask(spark, scale, nMds = 1, p = 0.0),
      moviesTask(spark, scale, nMds = 3, p = 0.0),
      productsTask(spark, scale, p = 0.0),
      papersTask(spark, scale, p = 0.0),
    )
    val rows = Vector.newBuilder[Row4]
    println("[table] Table 4 — learning with MDs")
    for (t <- tasks) {
      val b = new Bench(spark, t)
      def rec(sys: String, r: CvResult): Unit = {
        rows += Row4(t.name, sys, r)
        println(f"[table] ${t.name}%-12s ${sys}%-12s ${fmt(r)}")
      }
      rec("Castor-NoMD", b.castorNoMd())
      rec("Castor-Exact", b.castorExact())
      rec("Castor-Clean", b.castorClean())
      for (km <- kms) rec(s"DLearn-k$km", b.dlearn(km))
    }
    rows.result()
  }

  // ---------------------------------------------------------------- Table 5

  final case class Row5(dataset: String, system: String, p: Double, r: CvResult)

  /** DLearn-CFD vs DLearn-Repaired at violation rates p ∈ {0.05, 0.10, 0.20}.
    * k_m follows the paper: 5 for movies, 10 for products and papers.
    */
  def table5(spark: SparkSession, scale: ExpScale = ExpScale.bench5,
             ps: Seq[Double] = Seq(0.05, 0.10, 0.20)): Vector[Row5] = {
    val rows = Vector.newBuilder[Row5]
    println("[table] Table 5 — learning with MDs and CFD violations")
    val mk: Seq[(String, Double => TaskData, Int)] = Seq(
      ("movies-3md", (p: Double) => moviesTask(spark, scale, nMds = 3, p = p), 5),
      ("products", (p: Double) => productsTask(spark, scale, p = p), 10),
      ("papers", (p: Double) => papersTask(spark, scale, p = p), 10),
    )
    for ((name, make, km) <- mk; p <- ps) {
      val b = new Bench(spark, make(p))
      val cfd = b.dlearnCfd(km)
      val rep = b.dlearnRepaired(km)
      rows += Row5(name, "DLearn-CFD", p, cfd)
      rows += Row5(name, "DLearn-Repaired", p, rep)
      println(f"[table] $name%-12s p=$p%.2f CFD(${fmt(cfd)})  Repaired(${fmt(rep)})")
    }
    rows.result()
  }

  // ---------------------------------------------------------------- Table 6

  final case class Row6(km: Int, nPos: Int, nNeg: Int, f1: Double, timeMin: Double)

  /** Training-set size scaling on movies (3 MDs, p = 0.10) with a fixed test
    * split, for k_m ∈ {5, 2} — the paper's Table 6 at reduced counts.
    */
  def table6(spark: SparkSession, nMovies: Int = 4000,
             sizes: Seq[(Int, Int)] = Seq((50, 100), (100, 200), (200, 400)),
             testSize: (Int, Int) = (100, 200)): Vector[Row6] = {
    val maxP = sizes.map(_._1).max + testSize._1
    val maxN = sizes.map(_._2).max + testSize._2
    val task = moviesTask(spark, ExpScale.bench.copy(nMovies = nMovies), nMds = 3, p = 0.10, nEx = Some((maxP, maxN)))
    val b    = new Bench(spark, task)

    val rows = Vector.newBuilder[Row6]
    println("[table] Table 6 — scaling training examples (movies 3MD, p=0.10)")
    for (km <- Seq(5, 2)) {
      val params  = LearnParams(d = 4, mdMode = MdMode.SimMd, useCfdGroups = true)
      val learner = new DLearn(b.db, task.spec, b.simIndex(km), params)
      val teP = learner.coverage.groundAll(learner.builder, task.pos.take(testSize._1))
      val teN = learner.coverage.groundAll(learner.builder, task.neg.take(testSize._2))
      for ((np, nn) <- sizes) {
        val trP = task.pos.drop(testSize._1).take(np)
        val trN = task.neg.drop(testSize._2).take(nn)
        val t0  = System.nanoTime()
        val (defn, _) = learner.learn(trP, trN)
        val ms  = (System.nanoTime() - t0) / 1000000
        val m   = Eval.evaluate(learner, defn, teP, teN)
        rows += Row6(km, np, nn, m.f1, ms / 60000.0)
        println(f"[table] km=$km%2d #P/#N=$np%4d/$nn%4d F1=${m.f1}%.2f time=${ms / 60000.0}%.2fm")
      }
    }
    rows.result()
  }

  // ---------------------------------------------------------------- Table 7

  final case class Row7(d: Int, f1: Double, timeMin: Double)

  /** Effect of the number of BFS iterations d (movies 3 MDs + 4 CFDs,
    * k_m = 5, p = 0.10), d ∈ {2,3,4,5} as in the paper. Our schema is one
    * join shallower than the real IMDB+OMDB, so the F1 jump lands at d = 3
    * (title-MD path to the rating) instead of the paper's d = 4; the
    * cast/writer-MD paths open at d = 4 (DESIGN.md §3).
    */
  def table7(spark: SparkSession, scale: ExpScale = ExpScale.bench,
             ds: Seq[Int] = Seq(2, 3, 4, 5), km: Int = 5): Vector[Row7] = {
    val task = moviesTask(spark, scale, nMds = 3, p = 0.10)
    val rows = Vector.newBuilder[Row7]
    println("[table] Table 7 — effect of iterations d (movies 3MD, CFD, km=" + km + ")")
    for (d <- ds) {
      val b = new Bench(spark, task.copy(d = d))
      val r = b.dlearnCfd(km)
      rows += Row7(d, r.f1, r.timeMin)
      println(f"[table] d=$d F1=${r.f1}%.2f time=${r.timeMin}%.2fm")
    }
    rows.result()
  }
}
