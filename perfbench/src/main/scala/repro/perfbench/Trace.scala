package repro.perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import scala.jdk.CollectionConverters._

/** One recorded span: a named interval on one thread, caused by `parent`
  * (0 for a root). Spans of one learning job share `job`.
  */
final case class Span(id: Long, parent: Long, job: Int, name: String, thread: String,
                      startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder. Spans are kept in a lock-free queue and only
  * read after the traced work has finished. When disabled, `span` just runs
  * its body, so untraced runs pay one branch per call site.
  */
final class Tracer(val enabled: Boolean) {
  private val spans  = new ConcurrentLinkedQueue[Span]()
  private val nextId = new AtomicLong(1)

  /** Time `body` as span `name` under `parent`; the body receives the new
    * span's id so it can open child spans (also from other threads).
    */
  def span[A](name: String, parent: Long, job: Int)(body: Long => A): A =
    if (!enabled) body(0L)
    else {
      val id = nextId.getAndIncrement()
      val t0 = System.nanoTime()
      try body(id)
      finally spans.add(Span(id, parent, job, name, Thread.currentThread.getName, t0, System.nanoTime()))
    }

  def all: Vector[Span] = spans.asScala.toVector.sortBy(_.id)
}

object Tracer {

  /** Self time of every span: its duration minus the time covered by the
    * union of its children's intervals (children may run in parallel, so
    * their durations are not simply subtracted). Child intervals are taken
    * as recorded, not clipped to the parent, so a child that escapes its
    * parent shows as negative self time.
    */
  def selfTimes(spans: Vector[Span]): Map[Long, Long] = {
    val kids = spans.groupBy(_.parent)
    spans.map { s =>
      val ivs = kids.getOrElse(s.id, Vector.empty)
        .map(c => (c.startNs, c.endNs))
        .sortBy(_._1)
      var covered = 0L
      var curA    = Long.MinValue
      var curB    = Long.MinValue
      for ((a, b) <- ivs) {
        if (a > curB) {
          if (curB > curA) covered += curB - curA
          curA = a; curB = b
        } else if (b > curB) curB = b
      }
      if (curB > curA) covered += curB - curA
      s.id -> (s.durNs - covered)
    }.toMap
  }

  /** Spans that do not lie inside their parent's interval (should be none). */
  def unnested(spans: Vector[Span]): Vector[Span] = {
    val byId = spans.map(s => s.id -> s).toMap
    spans.filter { s =>
      s.parent != 0 && byId.get(s.parent).forall(p => s.startNs < p.startNs || s.endNs > p.endNs)
    }
  }

  /** Per span name: count, total duration and total self time, in seconds. */
  def summary(spans: Vector[Span]): Vector[(String, Int, Double, Double)] = {
    val self = selfTimes(spans)
    spans.groupBy(_.name).toVector.sortBy(_._1).map { case (n, ss) =>
      (n, ss.size, ss.map(_.durNs).sum / 1e9, ss.map(s => self(s.id)).sum / 1e9)
    }
  }
}
