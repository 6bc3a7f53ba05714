package repro.perfbench

import org.apache.spark.sql.SparkSession

import repro.core.learn.{LearnParams, MdMode}
import repro.exp.{ExpScale, Tables, TaskData}

/** One benchmark workload: a dataset pair, its dirtiness, the DLearn
  * configuration that learns over it, and how many independently generated
  * instances one run learns.
  *
  * @param tasks   instances per run; instance i of a run with seed s is
  *                generated with seed `s * 100 + i`, so a run's inputs are a
  *                function of its seed alone
  * @param f1Floor a run fails when its pooled test F1 falls below this
  * @param f1Folds how many of the 5 cross-validation folds `f1` pools per
  *                instance (fold 0 is the job's own; each further fold
  *                costs one more `learn`, outside the timed span)
  * @param depth   bottom-clause BFS depth, when it differs from the task's
  */
final case class Workload(
    name: String,
    dataset: String,
    p: Double,
    km: Int,
    cfd: Boolean,
    scale: ExpScale,
    tasks: Int,
    f1Floor: Double,
    f1Folds: Int,
    depth: Option[Int] = None,
) {
  def subSeed(seed: Long, i: Int): Long = seed * 100 + i

  def task(spark: SparkSession, scale: ExpScale, seed: Long): TaskData = {
    val t = dataset match {
      case "products" => Tables.productsTask(spark, scale, p, seed)
      case "papers"   => Tables.papersTask(spark, scale, p, seed)
      case "movies"   => Tables.moviesTask(spark, scale, nMds = 3, p = p, seed = seed)
    }
    depth.fold(t)(d => t.copy(d = d))
  }

  /** The learner configuration `exp.Bench.dlearn` / `dlearnCfd` uses. */
  def params(t: TaskData): LearnParams =
    Tables.baseParams.copy(mdMode = MdMode.SimMd, useCfdGroups = cfd, d = t.d)
}

object Workloads {

  private def scale(products: Int = 0, papers: Int = 0, movies: Int = 0, ex: (Int, Int)): ExpScale =
    ExpScale(nMovies = movies, nProducts = products, nPapers = papers,
      moviesEx = ex, productsEx = ex, papersEx = ex)

  /** The first two form the benchmark's default set (BENCHMARK.json); the
    * others are for runs by hand. The default set uses k_m = 2 because at
    * k_m = 5 or 10 one `learn` takes from 0.02 s to 18 s depending on the
    * seed example, too spread for a steady run of about a minute (README.md).
    * movies-cfd uses d = 3, where this schema already reaches the rating
    * (`Tables.table7`); at d = 4 one job takes up to a minute.
    */
  val all: Vector[Workload] = Vector(
    Workload("products-md", "products", p = 0.0, km = 2, cfd = false,
      scale = scale(products = 600, ex = (80, 160)), tasks = 8, f1Floor = 0.5, f1Folds = 5),
    Workload("papers-md", "papers", p = 0.0, km = 2, cfd = false,
      scale = scale(papers = 450, ex = (60, 120)), tasks = 8, f1Floor = 0.5, f1Folds = 2),
    Workload("products-md-k10", "products", p = 0.0, km = 10, cfd = false,
      scale = scale(products = 300, ex = (20, 40)), tasks = 6, f1Floor = 0.5, f1Folds = 1),
    Workload("movies-cfd", "movies", p = 0.10, km = 5, cfd = true,
      scale = scale(movies = 300, ex = (20, 40)), tasks = 4, f1Floor = 0.5, f1Folds = 1, depth = Some(3)),
  )

  /** Untimed jobs on the first instance before the clock starts. */
  val WarmUpJobs = 4

  def byName(n: String): Workload =
    all.find(_.name == n).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $n (known: ${all.map(_.name).mkString(", ")})"))
}
