package repro.core.learn

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._

import org.scalatest.funsuite.AnyFunSuite

class ParSpec extends AnyFunSuite {

  test("map keeps its input order") {
    val xs = Vector.tabulate(500)(i => (i * 7919) % 500)
    assert(Par.map(xs)(x => x * 2) == xs.map(_ * 2))
  }

  test("map rethrows a task's exception") {
    val e = intercept[IllegalStateException](Par.map(0 until 10)(i => if (i == 7) throw new IllegalStateException("boom") else i))
    assert(e.getMessage.contains("boom"))
  }

  test("workers are daemon threads named coverage") {
    val ts = Par.map(0 until 100)(_ => Thread.currentThread()).distinct
    assert(ts.forall(t => t.isDaemon && t.getName == "coverage"))
  }

  test("a nested map with more tasks than threads completes") {
    // Every outer task waits on inner tasks queued behind the other outer
    // tasks: a fixed pool with fewer threads than outer tasks deadlocks, and
    // stays deadlocked, so this test comes last.
    val n    = math.max(64, 8 * Runtime.getRuntime.availableProcessors)
    val run  = Future(Par.map(0 until n)(i => Par.map(0 until n)(j => i * n + j).sum))(ExecutionContext.global)
    val sums = Await.result(run, 60.seconds)
    assert(sums == Vector.tabulate(n)(i => (0 until n).map(j => i * n + j).sum))
  }
}
