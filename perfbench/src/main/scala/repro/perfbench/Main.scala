package repro.perfbench

import java.lang.management.ManagementFactory
import java.lang.ref.Reference
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import java.security.MessageDigest
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

import repro.core.db.{Database, Example}
import repro.core.learn._
import repro.core.logic.Definition
import repro.exp.{ExpScale, TaskData}
import repro.jobs.JobSession
import repro.spark.SimJoin

/** The benchmark's JVM side: one run of one workload.
  *
  * Set-up starts Spark and builds every instance of the workload (data
  * generation, CFD injection, `Database.fromFrames`). Untimed jobs on the
  * first instance warm the JVM. The timed phase is a closed loop with a
  * single client: learning jobs run one at a time over the instances in
  * turn, at least one per instance, and keep cycling while another job is
  * expected to end within `--seconds`. A job goes from a collected
  * `Database` to a learned `Definition` (similarity index, grounding of
  * every example, learning on fold 0's training split); it is then
  * evaluated on the held-out fold and its outputs are checked. After the
  * timed phase, each instance's first timed job learns and evaluates the
  * instance's further cross-validation folds, for `f1`.
  *
  * With `--trace 1` each instance visited is learned twice in a row,
  * untraced and traced, and only the first instance is required. The traced
  * job records spans around each layer call and runs the layer probes. The
  * result, with the environment and per-job details, is written as JSON to
  * `--out`; the spans go next to it.
  *
  * Usage: Main --workload W --seed N --seconds S --trace 0|1 --out FILE
  *             [--scale tiny]
  */
object Main {

  final case class Inst(i: Int, seed: Long, task: TaskData, db: Database, generateS: Double, collectS: Double)

  final case class Job(
      id: Int, inst: Int, traced: Boolean, ttmS: Double, test: Metrics, clauses: Int, literals: Int,
      digest: String, failures: Vector[String], layer: Map[String, Double], cv: Option[() => Metrics] = None,
  )

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def timed[A](f: => A): (A, Double) = { val t0 = System.nanoTime(); val r = f; (r, secs(t0)) }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      val n = s.size
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  /** Nearest-rank percentile. */
  def pct(xs: Seq[Double], p: Double): Double =
    if (xs.isEmpty) Double.NaN
    else { val s = xs.sorted; s(math.min(s.size - 1, math.max(0, math.ceil(p * s.size).toInt - 1))) }

  private def mean(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else xs.sum / xs.size

  def digest(d: Definition): String =
    MessageDigest.getInstance("SHA-1").digest(d.render.getBytes(StandardCharsets.UTF_8))
      .take(8).map(b => f"$b%02x").mkString

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w       = Workloads.byName(opts("workload"))
    val seed    = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val traced  = opts("trace") == "1"
    val out     = Paths.get(opts("out"))
    val tiny    = opts.get("scale").contains("tiny")
    val scale   = if (tiny) ExpScale.tiny else w.scale
    val nInst   = if (tiny) 1 else w.tasks
    Files.createDirectories(out.toAbsolutePath.getParent)

    // ------------------------------------------------------------ set-up
    // The program's own session bootstrap. run.py sets its shuffle
    // partitions (SPARK_SHUFFLE_PARTITIONS) and passes the UI switch and the
    // scratch directories as spark.* system properties.
    val (spark, sparkS) = timed(JobSession.local("perfbench"))
    val master = spark.sparkContext.master
    val parts  = spark.conf.get("spark.sql.shuffle.partitions")
    def instance(i: Int, sc: ExpScale): Inst = {
      val s = w.subSeed(seed, i)
      val (task, genS) = timed(w.task(spark, sc, s))
      val (db, colS)   = timed(Database.fromFrames(task.spec.schema, task.frames))
      Inst(i, s, task, db, genS, colS)
    }
    val insts = (0 until nInst).map(instance(_, scale)).toVector
    val setupS = sparkS + median(insts.map(i => i.generateS + i.collectS))

    val tracer = new Tracer(traced)
    val heapMb = Vector.newBuilder[Double]
    var counts: Option[(Layers.JoinCounts, (Long, Long))] = None
    val cvFor  = scala.collection.mutable.Set.empty[Int]

    // -------------------------------------------------------------- a job
    def runJob(id: Int, inst: Inst, withTrace: Boolean): Job = {
      val warmUp  = id < 0
      val tr      = if (withTrace) tracer else new Tracer(false)
      val task    = inst.task
      val params  = w.params(task)
      val layer   = Map.newBuilder[String, Double]
      val t0      = System.nanoTime()
      tr.span("job", 0L, id) { root =>
        val idx = tr.span("simjoin.build", root, id)(_ => SimJoin.buildIndex(spark, inst.db, task.spec.mds, w.km))
        val learner = new DLearn(inst.db, task.spec, idx, params)
        def ground(es: Vector[Example], parent: Long): Vector[GroundEx] =
          Par.map(es) { e =>
            val g = tr.span("bottom.build", parent, id)(_ => learner.builder.build(e, variabilize = false))
            tr.span("expand.ground", parent, id)(_ => learner.coverage.groundFrom(e, g))
          }
        val (posG, negG) =
          if (withTrace) tr.span("ground", root, id)(gs => (ground(task.pos, gs), ground(task.neg, gs)))
          else (learner.coverage.groundAll(learner.builder, task.pos), learner.coverage.groundAll(learner.builder, task.neg))
        val posFolds   = Eval.folds(posG, 5, inst.seed)
        val negFolds   = Eval.folds(negG, 5, inst.seed + 1)
        val (trP, teP) = posFolds(0)
        val (trN, teN) = negFolds(0)
        val (defn, stats) = tr.span("learn.learn", root, id)(_ =>
          learner.learn(trP.map(_.ex), trN.map(_.ex), preGround = Some((trP, trN))))
        val ttmS = secs(t0)
        val m = tr.span("eval.eval", root, id)(_ => Eval.evaluate(learner, defn, teP, teN))

        // ---- output checks (outside the timed span)
        val fails = Vector.newBuilder[String]
        if (defn.isEmpty) fails += "empty definition"
        defn.clauses.filterNot(_.headConnected).foreach(c => fails += s"clause not head-connected: ${c.render}")
        val (idxBad, entries) = Layers.checkIndex(idx, inst.db, task.spec.mds, w.km)
        fails ++= idxBad
        layer += "simjoin.index_entries" -> entries.toDouble

        if (withTrace) {
          // Coverage replay: every (clause, example) test of the evaluation,
          // timed one by one, over all ground examples; the test fold's
          // predictions must reproduce Eval.evaluate's Metrics.
          val all = posG ++ negG
          val (cExps, hits) = tr.span("coverage.replay", root, id) { rs =>
            val ce = defn.clauses.map(c => tr.span("coverage.expand", rs, id)(_ => learner.coverage.expand(c)))
            (ce, Par.map(all)(g => ce.map(e => tr.span("coverage.test", rs, id)(_ => learner.coverage.coversPos(e, g)))))
          }
          val predicted = all.zip(hits).map { case (g, h) => g.ex -> h.contains(true) }.toMap
          val replay = Metrics(
            tp = teP.count(g => predicted(g.ex)),
            fp = teN.count(g => predicted(g.ex)),
            fn = teP.count(g => !predicted(g.ex)),
          )
          if (replay != m) fails += s"coverage replay gives $replay but Eval.evaluate gives $m"
          Reference.reachabilityFence(cExps)
          layer += "coverage.tests" -> hits.map(_.size).sum.toDouble
          layer += "coverage.covered" -> hits.map(_.count(identity)).sum.toDouble

          // ARMG probe: the first seed's bottom clause generalized toward
          // every training positive.
          tr.span("generalize.probe", root, id) { ps =>
            val c = tr.span("bottom.build_var", ps, id)(_ => learner.builder.build(trP.head.ex, variabilize = true))
            trP.foreach(g => tr.span("generalize.armg", ps, id)(_ => Generalize.armg(c, g.raw, params.maxFrontier)))
          }
          val bs = Layers.bottomStats(all, params.sampleSize)
          layer += "bottom.lits_mean" -> mean(bs.lits.map(_.toDouble))
          layer += "bottom.lits_max" -> bs.lits.max.toDouble
          layer += "bottom.sim_lits_mean" -> mean(bs.simLits.map(_.toDouble))
          layer += "bottom.sample_cap_hits" -> bs.capHits.toDouble
          layer += "expand.versions_mean" -> mean(all.map(_.expansions.size.toDouble))
          layer += "expand.cap_hits" -> all.count(_.expansions.size >= params.maxExpansions).toDouble
          if (counts.isEmpty)
            counts = Some(tr.span("simjoin.probe", root, id)(_ =>
              (Layers.joinCounts(spark, inst.db, task.spec.mds), Layers.recall(idx, inst.db, task.spec.mds, w.km, 100))))
        }
        if (warmUp) {
          // Heap in use with this job's database, index, ground examples and
          // definition live, taken in each warm-up job; the metric is their
          // median, as a single reading varied by up to 4% on papers-md.
          System.gc(); System.gc()
          heapMb += ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
          Reference.reachabilityFence(Seq(inst.db, idx, posG, negG, defn))
        }
        // Cross-validated test metrics, taken once per instance after the
        // timed phase from its first timed job: fold 0's, plus those of
        // folds 1 until `w.f1Folds`, each learned on its own training split.
        val cv =
          if (warmUp || withTrace || !cvFor.add(inst.i)) None
          else {
            Some(() => (1 until w.f1Folds).foldLeft(m) { (acc, k) =>
              val (kP, kTeP) = posFolds(k)
              val (kN, kTeN) = negFolds(k)
              val (d, _) = learner.learn(kP.map(_.ex), kN.map(_.ex), preGround = Some((kP, kN)))
              val mk = Eval.evaluate(learner, d, kTeP, kTeN)
              Metrics(acc.tp + mk.tp, acc.fp + mk.fp, acc.fn + mk.fn)
            })
          }
        Job(id, inst.i, withTrace, ttmS, m, stats.clauses, stats.literals, digest(defn), fails.result(), layer.result(), cv)
      }
    }

    val jobTimeoutS = 120.0
    def attempt(id: Int, inst: Inst, withTrace: Boolean): Job =
      try {
        val j = runJob(id, inst, withTrace)
        if (j.ttmS > jobTimeoutS) j.copy(failures = j.failures :+ f"timed out: ${j.ttmS}%.1f s > $jobTimeoutS%.0f s") else j
      } catch {
        case e: Throwable if scala.util.control.NonFatal(e) =>
          Job(id, inst.i, withTrace, Double.NaN, Metrics(0, 0, 0), 0, 0, "", Vector(s"threw ${e.getClass.getName}: ${e.getMessage}"), Map.empty)
      }

    // ------------------------------------------------------ timed phase
    // Timed jobs run in a warm JVM: before the clock starts, the first
    // instance is learned `Workloads.WarmUpJobs` times. These warm-up jobs
    // are checked like any other and give `heap_mb`, but their times count
    // in no metric.
    val jobs  = Vector.newBuilder[Job]
    for (n <- 1 to (if (tiny) 1 else Workloads.WarmUpJobs)) jobs += attempt(-n, insts(0), withTrace = false)
    val unitS = Vector.newBuilder[Double]
    var id    = 0
    val start = System.nanoTime()
    // One unit of work: a job (a traced pair with --trace 1), over the
    // instances in turn. Untraced runs cover every instance once; then, like
    // traced runs after their first pair, they start another unit only if a
    // median unit still fits.
    def more(k: Int): Boolean =
      k == 0 || (!traced && k < insts.size) || secs(start) + median(unitS.result()) <= seconds
    var k = 0
    while (more(k)) {
      val inst = insts(k % insts.size)
      val u0   = System.nanoTime()
      jobs += attempt(id, inst, withTrace = false); id += 1
      if (traced) { jobs += attempt(id, inst, withTrace = true); id += 1 }
      unitS += secs(u0)
      k += 1
    }
    val measuredS = secs(start)
    val all       = jobs.result()
    val plain     = all.filter(j => j.id >= 0 && !j.traced)

    // Per instance, the median over its jobs; then the median over instances,
    // so that every instance weighs the same however many jobs it got.
    def perInst(js: Vector[Job]): Double =
      median(js.groupBy(_.inst).values.map(g => median(g.map(_.ttmS))).toSeq)
    val ttm = perInst(plain.filter(_.failures.isEmpty))
    // Test F1 pooled over the instances' cross-validation folds: each
    // instance's first timed job contributes the (tp, fp, fn) of its first
    // `w.f1Folds` folds.
    val runFailures = Vector.newBuilder[String]
    val pooled =
      try plain.filter(_.failures.isEmpty).flatMap(_.cv).map(_())
      catch {
        case e: Throwable if scala.util.control.NonFatal(e) =>
          runFailures += s"cross-validation threw ${e.getClass.getName}: ${e.getMessage}"; Vector.empty
      }
    val f1 = Metrics(pooled.map(_.tp).sum, pooled.map(_.fp).sum, pooled.map(_.fn).sum).f1
    if (!(f1 >= w.f1Floor)) runFailures += f"pooled F1 $f1%.3f below the workload's floor ${w.f1Floor}%.2f"
    val digests = all.filter(_.digest.nonEmpty).groupBy(_.inst).toVector.sortBy(_._1)
      .map { case (i, js) => i -> js.map(_.digest).distinct }

    // ---------------------------------------------------------- metrics
    val metrics = Vector.newBuilder[(String, Double, String)]
    if (!traced) {
      metrics += (("time_to_model_s", ttm, "s"))
      metrics += (("f1", f1, "ratio"))
      metrics += (("setup_s", setupS, "s"))
      metrics += (("heap_mb", median(heapMb.result()), "MB"))
    } else {
      val spans = tracer.all
      val tj    = all.filter(j => j.traced && j.failures.isEmpty)
      def spanSum(name: String): Vector[Double] =
        tj.map(j => spans.filter(s => s.job == j.id && s.name == name).map(_.durNs).sum / 1e9)
      def spanUs(name: String): Vector[Double] =
        spans.filter(s => s.name == name && tj.exists(_.id == s.job)).map(_.durNs / 1e3)
      def layerMean(k: String): Double = mean(tj.flatMap(_.layer.get(k)))
      val (jc, (found, expected)) = counts.getOrElse((Layers.JoinCounts(0, 0, 0), (0L, 0L)))
      val tests = tj.flatMap(_.layer.get("coverage.tests")).sum
      val tracedTtm = perInst(tj)
      metrics += (("dirty.generate_s", median(insts.map(_.generateS)), "s"))
      metrics += (("db.collect_s", median(insts.map(_.collectS)), "s"))
      metrics += (("db.tuples", mean(insts.map(_.db.tupleCount.toDouble)), "count"))
      metrics += (("simjoin.build_s", median(spanSum("simjoin.build")), "s"))
      metrics += (("simjoin.cross_pairs", jc.cross.toDouble, "count"))
      metrics += (("simjoin.block_pairs", jc.block.toDouble, "count"))
      metrics += (("simjoin.scored_pairs", jc.scored.toDouble, "count"))
      metrics += (("simjoin.block_selectivity", jc.block.toDouble / jc.cross, "ratio"))
      metrics += (("simjoin.useful_ratio", jc.scored.toDouble / jc.block, "ratio"))
      metrics += (("simjoin.index_entries", layerMean("simjoin.index_entries"), "count"))
      metrics += (("simjoin.recall", found.toDouble / expected, "ratio"))
      metrics += (("bottom.build_s", median(spanSum("bottom.build")), "s"))
      metrics += (("bottom.lits_mean", layerMean("bottom.lits_mean"), "count"))
      metrics += (("bottom.lits_max", layerMean("bottom.lits_max"), "count"))
      metrics += (("bottom.sim_lits_mean", layerMean("bottom.sim_lits_mean"), "count"))
      metrics += (("bottom.sample_cap_hits", layerMean("bottom.sample_cap_hits"), "count"))
      metrics += (("expand.ground_s", median(spanSum("expand.ground")), "s"))
      metrics += (("expand.versions_mean", layerMean("expand.versions_mean"), "count"))
      metrics += (("expand.cap_hits", layerMean("expand.cap_hits"), "count"))
      metrics += (("learn.learn_s", median(spanSum("learn.learn")), "s"))
      metrics += (("learn.clauses", mean(tj.map(_.clauses.toDouble)), "count"))
      metrics += (("learn.literals", mean(tj.map(_.literals.toDouble)), "count"))
      metrics += (("generalize.armg_calls", mean(tj.map(j => spans.count(s => s.job == j.id && s.name == "generalize.armg").toDouble)), "count"))
      metrics += (("generalize.armg_us_p50", median(spanUs("generalize.armg")), "us"))
      metrics += (("coverage.tests", mean(tj.flatMap(_.layer.get("coverage.tests"))), "count"))
      metrics += (("coverage.test_us_p50", median(spanUs("coverage.test")), "us"))
      metrics += (("coverage.test_us_p99", pct(spanUs("coverage.test"), 0.99), "us"))
      metrics += (("coverage.covered_frac", tj.flatMap(_.layer.get("coverage.covered")).sum / tests, "ratio"))
      metrics += (("coverage.expand_s", median(spanSum("coverage.expand")), "s"))
      metrics += (("eval.eval_s", median(spanSum("eval.eval")), "s"))
      metrics += (("trace.overhead_frac", tracedTtm / ttm - 1, "ratio"))

      // Span checks: no negative self time (children that overlap or escape
      // their parent cover more than its duration), children inside their
      // parent.
      val self = Tracer.selfTimes(spans)
      spans.filter(s => self(s.id) < 0).take(3).foreach(s => runFailures += s"span ${s.name}#${s.id} has negative self time")
      Tracer.unnested(spans).take(3).foreach(s => runFailures += s"span ${s.name}#${s.id} lies outside its parent")
      writeSpans(out.resolveSibling(out.getFileName.toString.stripSuffix(".json") + ".spans.json"), spans)
    }

    val failed  = all.count(_.failures.nonEmpty)
    val runFail = runFailures.result()
    val env = envRecord(spark, master, parts, seed)
    val result = Json.obj(Seq(
      "workload"      -> Json.str(w.name),
      "seed"          -> seed.toString,
      "trace"         -> traced.toString,
      "scale"         -> Json.str(scale.toString),
      "instances"     -> nInst.toString,
      "correct"       -> (failed == 0 && runFail.isEmpty).toString,
      "attempted"     -> all.size.toString,
      "failed"        -> failed.toString,
      "failures"      -> Json.arr((runFail ++ all.flatMap(j => j.failures.map(f => s"job ${j.id}: $f"))).map(Json.str)),
      "metrics"       -> Json.obj(metrics.result().map { case (n, v, u) =>
        n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u))) }),
      "digests"       -> Json.obj(digests.map { case (i, ds) => i.toString -> Json.arr(ds.map(Json.str)) }),
      "instances_with_varying_definition" -> digests.count(_._2.size > 1).toString,
      "distinct_digests" -> digests.flatMap(_._2).distinct.size.toString,
      "spark_start_s" -> Json.num(sparkS),
      "instance_setup_s" -> Json.arr(insts.map(i => Json.num(i.generateS + i.collectS))),
      "measured_s"    -> Json.num(measuredS),
      "jobs"          -> Json.arr(all.map(j => Json.obj(Seq(
        "id" -> j.id.toString, "instance" -> j.inst.toString, "traced" -> j.traced.toString,
        "time_to_model_s" -> Json.num(j.ttmS), "f1" -> Json.num(j.test.f1), "clauses" -> j.clauses.toString,
        "literals" -> j.literals.toString, "digest" -> Json.str(j.digest))))),
      "env"           -> env,
    ))
    Files.write(out, result.getBytes(StandardCharsets.UTF_8))
    spark.stop()
  }

  private def envRecord(spark: SparkSession, master: String, parts: String, seed: Long): String = {
    val rt = ManagementFactory.getRuntimeMXBean
    val coverageThreads = Thread.getAllStackTraces.keySet.asScala.count(_.getName == "coverage")
    Json.obj(Seq(
      "nproc"                -> Runtime.getRuntime.availableProcessors.toString,
      "spark_master"         -> Json.str(master),
      "spark_default_parallelism" -> spark.sparkContext.defaultParallelism.toString,
      "shuffle_partitions"   -> Json.str(parts),
      "xmx_mb"               -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "jvm_args"             -> Json.arr(rt.getInputArguments.asScala.filter(_.startsWith("-X")).map(Json.str).toSeq),
      "java_version"         -> Json.str(System.getProperty("java.version")),
      "java_vm"              -> Json.str(System.getProperty("java.vm.name") + " " + System.getProperty("java.vm.version")),
      "seed"                 -> seed.toString,
      "par_pool_threads"     -> coverageThreads.toString,
      "par_pool"             -> Json.str("repro.core.learn.Par: fixed pool of 16 threads named 'coverage'"),
    ))
  }

  private def writeSpans(path: java.nio.file.Path, spans: Vector[Span]): Unit = {
    val self = Tracer.selfTimes(spans)
    val rows = spans.map(s => Json.obj(Seq(
      "id" -> s.id.toString, "parent" -> s.parent.toString, "job" -> s.job.toString,
      "name" -> Json.str(s.name), "thread" -> Json.str(s.thread),
      "start_ns" -> s.startNs.toString, "end_ns" -> s.endNs.toString, "self_ns" -> self(s.id).toString)))
    val summary = Tracer.summary(spans).map { case (n, c, tot, selfS) =>
      Json.obj(Seq("name" -> Json.str(n), "count" -> c.toString, "total_s" -> Json.num(tot), "self_s" -> Json.num(selfS)))
    }
    Files.write(path, Json.obj(Seq("summary" -> Json.arr(summary), "spans" -> Json.arr(rows)))
      .getBytes(StandardCharsets.UTF_8))
  }
}
