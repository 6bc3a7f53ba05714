package repro.core.learn

import java.util.concurrent.{Callable, ForkJoinPool, ForkJoinTask, ForkJoinWorkerThread}

/** One work-stealing pool, one worker per available processor, for coverage
  * testing (the paper parallelizes coverage tests, Sec. 6.1.3) and for
  * scoring the similarity join's candidate pairs. A task may itself call
  * [[map]]: a worker waiting on its subtasks runs queued tasks meanwhile, so
  * nesting cannot exhaust the pool.
  */
object Par {
  private lazy val pool = new ForkJoinPool(
    Runtime.getRuntime.availableProcessors,
    (p: ForkJoinPool) => new ForkJoinWorkerThread(p) { setName("coverage") },
    null,
    false,
  )

  /** `xs.map(f)`, in parallel; results keep the order of `xs`. */
  def map[A, B](xs: Seq[A])(f: A => B): Vector[B] = {
    if (xs.lengthCompare(2) < 0) return xs.map(f).toVector
    val tasks = xs.iterator.map(x => ForkJoinTask.adapt(new Callable[B] { def call(): B = f(x) })).toVector
    if (ForkJoinTask.getPool eq pool) ForkJoinTask.invokeAll(tasks: _*)
    else pool.invoke(ForkJoinTask.adapt(new Runnable { def run(): Unit = ForkJoinTask.invokeAll(tasks: _*) }))
    tasks.map(_.join())
  }

  def count[A](xs: Seq[A])(p: A => Boolean): Int = map(xs)(p).count(identity)
}
