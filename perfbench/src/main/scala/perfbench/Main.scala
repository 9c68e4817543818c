package perfbench

import java.io.File
import scala.collection.mutable.ArrayBuffer
import org.apache.spark.sql.SparkSession
import repro.baselines.Baselines

/** The repository benchmark.
  *
  *   perfbench.Main --workload fleet|session|compare --seed N --seconds S --trace 0|1
  *
  * `--trace 0` measures the end-to-end metrics for `--seconds` seconds after
  * set-up and warm-up; `--trace 1` is a separate run that reports the
  * per-layer metrics. Human-readable lines go first; the last line of
  * standard output is one JSON object with `correct`, `attempted`, `failed`
  * and `metrics`.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val known = Set("workload", "seed", "seconds", "trace")
    require(args.length % 2 == 0 && kv.keySet.subsetOf(known) && kv.contains("workload"),
      "usage: --workload fleet|session|compare [--seed N] [--seconds S] [--trace 0|1]")
    Opts(kv("workload"), kv.get("seed").map(_.toLong).getOrElse(Workload.DefaultSeed),
      kv.get("seconds").map(_.toInt).getOrElse(10), kv.get("trace").exists(_ == "1"))
  }

  def main(args: Array[String]): Unit = {
    val code =
      try { run(parse(args)); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
    System.exit(code)
  }

  private def startSpark(): SparkSession = {
    // Spark's local directories stay inside the benchmark's build directory.
    val dir = new File(sys.props.getOrElse("perfbench.sparkDir", ".bench_build/perfbench/spark"))
    dir.mkdirs()
    val s = SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("perfbench")
      .config("spark.ui.enabled", false)
      .config("spark.local.dir", dir.getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(dir, "warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def run(o: Opts): Unit = {
    var sparkOpt: Option[SparkSession] = None
    lazy val spark = { val s = startSpark(); sparkOpt = Some(s); s }
    try {
      val w = Workload(o.workload, o.seed, spark)
      // Set-up runs from JVM start to the first timed operation: JVM boot,
      // the SparkSession and the workload's inputs. The inputs are built
      // three times and counted once, at the median of the three.
      val inputMs = (1 to 3).map(_ => Clock.timed(w.prepare())._2)
      val setupMs = (System.currentTimeMillis() - Jvm.startMs) - inputMs.sum + Stats.median(inputMs)

      val digests = ArrayBuffer.empty[String]
      val warmupMs = ArrayBuffer.empty[Double]
      def step(): Batch = { val b = w.batch(); digests += b.digest; b }
      (1 to w.warmups).foreach(_ => warmupMs += step().wallMs)

      // Evaluated when printed: the traced `session` run starts Spark late.
      def header = environment(o, w, sparkOpt) :+ ("warmup_batch_ms" -> warmupMs.map(fmt).mkString(" "))
      if (!o.trace) measure(o, w, step _, digests, setupMs, header)
      else traced(w, step _, digests, setupMs, header, () => spark)
    } finally sparkOpt.foreach(_.stop())
  }

  private def environment(o: Opts, w: Workload, spark: Option[SparkSession]): Vector[(String, String)] =
    Vector(
      "workload" -> w.name, "seed" -> o.seed.toString, "seconds" -> o.seconds.toString,
      "trace" -> (if (o.trace) "1" else "0"),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "jdk" -> Jvm.version,
      "spark" -> spark.map(_.version).getOrElse("not used"),
      "master" -> spark.map(_.sparkContext.master).getOrElse("none (single thread)"),
      "warmup_batches" -> w.warmups.toString) ++ w.record

  private def measure(o: Opts, w: Workload, step: () => Batch, digests: ArrayBuffer[String],
                      setupMs: Double, header: => Vector[(String, String)]): Unit = {
    val batches = ArrayBuffer.empty[Batch]
    val gcMs = ArrayBuffer.empty[Double]
    val t0 = System.nanoTime()
    while (batches.size < 2 || batches.map(_.ops).sum < w.minOps || Clock.ms(t0) < o.seconds * 1000.0) {
      val gc0 = Jvm.gcMs
      batches += step()
      gcMs += Jvm.gcMs - gc0
    }
    val measuredS = Clock.ms(t0) / 1000.0

    val ops = batches.map(_.ops).sum
    val failed = batches.map(_.failed).sum
    val opMs = batches.flatMap(_.opMs).toVector
    val q = batches.head.quality
    val metrics = Vector(
      "setup_s" -> Metric(setupMs / 1000.0, "s"),
      "ops_per_s" -> Metric(batches.head.ops / (Stats.median(batches.map(_.wallMs).toSeq) / 1000.0), "op/s"),
      "op_ms_p50" -> Metric(Stats.quantile(opMs, 0.5), "ms"),
      "op_ms_p90" -> Metric(Stats.quantile(opMs, 0.9), "ms"),
      "cost_reduction_pct" -> Metric(q.costReductionPct, "%"))
    val entry = w.entryPointDigest().map(_ == digests.head)
    val stable = digests.distinct.size == 1
    val correct = stable && entry.forall(identity) && failed == 0 &&
      metrics.forall(m => Workload.finite(m._2.value))

    header.foreach { case (k, v) => println(s"# $k: $v") }
    println(s"# batches: ${batches.size} measured in ${fmt(measuredS)} s, ${opMs.size} op latency samples")
    println(s"# batch_ms: ${batches.map(b => fmt(b.wallMs)).mkString(" ")}")
    println(s"# batch_gc_ms: ${gcMs.map(fmt).mkString(" ")}; heap_peak_mb: ${fmt(Jvm.heapPeakMb)}")
    println(s"# digest: ${digests.head} (${if (stable) "identical" else "DIFFERS"} over ${digests.size} batches)")
    entry.foreach(m => println(s"# entry_point_digest: ${if (m) "match" else "MISMATCH"}"))
    println(s"# failed_pct: ${fmt(100.0 * failed / ops)} % ($failed of $ops)")
    q.named.foreach { case (k, v, u) => println(s"# $k: ${fmt(v)} $u") }
    metrics.foreach { case (k, m) => println(s"$k ${fmt(m.value)} ${m.unit}") }
    println(json(correct, ops, failed, metrics))
  }

  private def traced(w: Workload, step: () => Batch, digests: ArrayBuffer[String],
                     setupMs: Double, header: => Vector[(String, String)],
                     spark: () => SparkSession): Unit = {
    val gc0 = Jvm.gcMs
    val untraced = step()
    // Traced batch: the same batch with the Spark listener attached. The
    // listener stays on through the workload's trace, which on `session`
    // runs the sessions as a Spark job.
    val observer = new SparkObserver
    val sc = spark().sparkContext
    sc.addSparkListener(observer)
    val tracedBatch = step()
    val td = w.trace(untraced.wallMs, setupMs)
    settle(observer)
    sc.removeSparkListener(observer)

    val layers = new Layers
    val replay = new Replay(layers)
    // Each replayed operation is timed again right before its replay, so
    // that machine speed drifting between the two does not bias the share.
    val spanSum = td.recorded.map { r =>
      val t = Clock.timed(r.rerun())._2
      replay.replay(r)
      t
    }.sum
    // Layers the workload's own operations do not call are measured on one
    // of its histories by a separate probe, which is not attributed.
    val probe = new Layers
    val probeReplay = new Replay(probe)
    val longest = td.recorded.filter(_.method == "Ours").maxBy(_.history.size)
    if (layers.calls("surrogate.ensemble_score_batch") == 0)
      probeReplay.replay(longest.copy(bases = td.kbBases))
    if (layers.calls("model.rf_fit") == 0) probeReplay.replay(longest.copy(method = "RFHOC"))
    if (layers.calls("model.gbdt_fit") == 0) probeReplay.replay(longest.copy(method = "DAC"))
    def perCall(layer: String): Double =
      if (layers.calls(layer) > 0) layers.perCallMs(layer) else probe.perCallMs(layer)
    val nOps = td.recorded.size.toDouble
    def perOp(layer: String): Double = layers.calls(layer) / nOps
    val obs = td.recorded.flatMap(_.history.all)

    val metrics = Vector(
      "importance.fanova_ms" -> Metric(perCall("importance.fanova"), "ms"),
      "importance.fanova_refits" -> Metric(perOp("importance.fanova"), "count/op"),
      "surrogate.gp_fit_ms" -> Metric(perCall("surrogate.gp_fit"), "ms"),
      "surrogate.gp_fits" -> Metric(perOp("surrogate.gp_fit"), "count/op"),
      "surrogate.score_batch_ms" -> Metric(perCall("surrogate.score_batch"), "ms"),
      "surrogate.score_batches" -> Metric(perOp("surrogate.score_batch"), "count/op"),
      "surrogate.ensemble_score_batch_ms" -> Metric(perCall("surrogate.ensemble_score_batch"), "ms"),
      "surrogate.cv_weight_ms" -> Metric(perCall("surrogate.cv_weight"), "ms"),
      "linalg.cholesky_ms" -> Metric(replay.choleskyMs(longest), "ms"),
      "model.rf_fit_ms" -> Metric(perCall("model.rf_fit"), "ms"),
      "model.gbdt_fit_ms" -> Metric(perCall("model.gbdt_fit"), "ms"),
      "meta.kb_build_ms" -> Metric(td.kbBuildMs, "ms"),
      "meta.kb_share_pct" -> Metric(td.kbSharePct, "%"),
      "meta.warm_start_ms" -> Metric(td.warmStartMs, "ms"),
      "bo.agd_step_ms" -> Metric(perCall("bo.agd_step"), "ms"),
      "bo.agd_steps" -> Metric(perOp("bo.agd_step"), "count/op"),
      "space.candidates_ms" -> Metric(perCall("space.candidates"), "ms"),
      "bo.topk_change_pct" -> Metric(replay.topkChangePct, "%"),
      "bo.feasible_candidate_pct" -> Metric(replay.feasibleCandidatePct, "%")) ++
      Baselines.all.map(m => s"baselines.${m.name}.session_ms" ->
        Metric(Stats.median(td.baselineMs(m.name)), "ms")) ++
      Vector(
        "env.sim_run_us" -> Metric(1000.0 * layers.perCallMs("env.sim_run"), "us"),
        "env.sim_runs" -> Metric(perOp("env.sim_run"), "count/op"),
        "spark.speedup_vs_serial" -> Metric(td.serialMs / td.parallelMs, "x"),
        "spark.task_skew" -> Metric(observer.taskSkew, "ratio"),
        "spark.scheduler_delay_ms" -> Metric(
          Some(observer.meanSchedulerDelayMs).filterNot(_.isNaN).getOrElse(0.0), "ms"),
        "spark.tasks" -> Metric(observer.taskCount.toDouble, "count"),
        "jvm.gc_ms" -> Metric(Jvm.gcMs - gc0, "ms"),
        "jvm.heap_peak_mb" -> Metric(Jvm.heapPeakMb, "MB"),
        "core.op_span_ms" -> Metric(Stats.median(td.opSpansMs), "ms"),
        "core.unattributed_pct" -> Metric(100.0 * (1.0 - layers.attributedMs / spanSum), "%"),
        "core.trace_overhead_pct" -> Metric(100.0 * (tracedBatch.wallMs / untraced.wallMs - 1.0), "%"),
        "core.replay_fidelity_pct" -> Metric(100.0 * td.fidelity._1 / td.fidelity._2.max(1), "%"),
        "quality.safe_run_pct" -> Metric(100.0 * obs.count(_.feasible) / obs.size.max(1), "%"))

    val ops = untraced.ops + tracedBatch.ops
    val failed = untraced.failed + tracedBatch.failed
    val stable = digests.distinct.size == 1
    val correct = stable && failed == 0 && metrics.forall(m => Workload.finite(m._2.value))
    header.foreach { case (k, v) => println(s"# $k: $v") }
    println(s"# traced operations: ${td.opSpansMs.size}, replayed: ${td.recorded.size}")
    println(s"# digest: ${digests.head} (${if (stable) "identical" else "DIFFERS"} over ${digests.size} batches)")
    metrics.foreach { case (k, m) => println(s"$k ${fmt(m.value)} ${m.unit}") }
    println(json(correct, ops, failed, metrics))
  }

  /** Listener events arrive asynchronously; wait until the task count settles. */
  private def settle(observer: SparkObserver): Unit = {
    var last = -1
    var polls = 0
    while (observer.taskCount != last && polls < 40) {
      last = observer.taskCount
      Thread.sleep(100)
      polls += 1
    }
  }

  private def fmt(v: Double): String = f"$v%.4f"

  private def json(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Metric)]): String = {
    def num(v: Double): String = if (Workload.finite(v)) v.toString else "null"
    val ms = metrics.map { case (k, m) => s""""$k": {"value": ${num(m.value)}, "unit": "${m.unit}"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
