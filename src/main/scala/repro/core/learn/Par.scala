package repro.core.learn

import java.util.concurrent.{Callable, Executors}
import scala.jdk.CollectionConverters._

/** Fixed-size thread pool for coverage testing — the paper parallelizes
  * coverage tests over 16 threads (Sec. 6.1.3) — and for scoring the
  * similarity join's candidate pairs.
  */
object Par {
  private lazy val pool = Executors.newFixedThreadPool(
    16,
    (r: Runnable) => {
      val t = new Thread(r, "coverage")
      t.setDaemon(true)
      t
    },
  )

  def map[A, B](xs: Seq[A])(f: A => B): Vector[B] = {
    if (xs.isEmpty) return Vector.empty
    if (xs.lengthCompare(2) < 0) return xs.map(f).toVector
    val tasks = xs.map(x => new Callable[B] { def call(): B = f(x) }).asJava
    pool.invokeAll(tasks).asScala.map(_.get()).toVector
  }

  def count[A](xs: Seq[A])(p: A => Boolean): Int = map(xs)(p).count(identity)
}
