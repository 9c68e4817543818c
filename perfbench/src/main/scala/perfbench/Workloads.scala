package perfbench

import scala.util.{Failure, Success, Try}
import org.apache.spark.sql.SparkSession
import repro.baselines.Baselines
import repro.core.{FleetRow, Objective, OnlineTuner, RunHistory, TunerSettings, TuningService}
import repro.env.{FleetGen, ProdTask, SparkClusterSim, Workloads => Specs}
import repro.jobs.{HiBenchCompareJob, Table3Job}
import repro.meta.{MetaFeatures, SourceTask, WarmStart}
import repro.meta.TaskSimilarity.DistanceModel
import repro.space.{Config, ConfigSpace, SparkParams => SP}

/** What a traced run learned about one workload, beyond the layer replay. */
final case class TraceData(
    recorded: Vector[Recorded],        // operations whose layer calls are replayed
    opSpansMs: Vector[Double],         // every traced top-level operation span
    serialMs: Double,                  // the batch run serially, outside Spark
    parallelMs: Double,                // the same batch as a Spark job
    kbBuildMs: Double, kbSharePct: Double, warmStartMs: Double,
    baselineMs: Map[String, Vector[Double]],
    fidelity: (Int, Int),              // replayed histories that reproduce the op's result, of all
    kbBases: Vector[(repro.surrogate.Surrogate, Double)])

/** One benchmark workload. A batch is a fixed set of operations that is
  * repeated unchanged, so every repeat must reproduce the same digest. */
trait Workload {
  def name: String
  /** Untimed batches before the measured ones: the first batch of a Spark
    * workload is 2–2.5× slower (JIT, Spark start-up) and the second still
    * 5–15 % slower; a session batch is warm after one. */
  def warmups: Int
  /** Operations a measured run completes at least, so that its p90 has ten samples above it. */
  def minOps: Int = 0
  /** Sizes, budgets and seeds, printed with the results. */
  def record: Vector[(String, String)]
  /** Build the inputs; timed for `setup_s`. */
  def prepare(): Unit
  def batch(): Batch
  /** Digest of the program's own entry point on this batch at the default
    * seed, where the program has one. */
  def entryPointDigest(): Option[String]
  /** Traced run. `batchMs` is an untraced batch's wall time and `setupMs`
    * the run's set-up time, the bases of the knowledge-base share. */
  def trace(batchMs: Double, setupMs: Double): TraceData
}

object Workload {
  val DefaultSeed = 42L

  def apply(name: String, seed: Long, spark: => SparkSession): Workload = name match {
    case "fleet"   => new FleetWorkload(spark, seed)
    case "session" => new SessionWorkload(spark, seed)
    case "compare" => new CompareWorkload(spark, seed)
    case other     => throw new IllegalArgumentException(s"unknown workload: $other")
  }

  def finite(xs: Double*): Boolean = xs.forall(x => !x.isNaN && !x.isInfinite)

  /** True when every value of `c` already lies in the space (clipping is a no-op). */
  def inSpace(cs: ConfigSpace, c: Config): Boolean = cs.clip(c) == c

  def failedBatch(ops: Int, wallMs: Double, e: Throwable): Batch = {
    System.err.println(s"perfbench: batch failed: $e")
    Batch(ops, ops, wallMs, Vector.fill(ops)(wallMs), "failed", Quality(Double.NaN, Vector.empty))
  }

  /** Time every `Baselines.all` method on `runs` sessions; method name → ms. */
  def timeBaselines(runs: Seq[(SparkClusterSim, Objective, Config, Int, Long)]): Map[String, Vector[Double]] =
    Baselines.all.map { m =>
      m.name -> runs.map { case (sim, obj, init, budget, seed) =>
        Clock.timed(m.tune(sim, obj, budget, seed, Vector(init)))._2
      }.toVector
    }.toMap

  /** The production recipe's pre-tuning window and objective for a task
    * (constraints at 2× the manual configuration's runtime and resource). */
  def recipe(task: ProdTask): (SparkClusterSim, Double, Objective) = {
    val sim = new SparkClusterSim(task.spec, FleetGen.prodSpace)
    val preRt = (0 until TuningService.Window).map(i => sim.run(task.manual, i).runtimeSec).sum /
      TuningService.Window
    (sim, preRt, Objective(0.5).withConstraintsFrom(preRt, sim.resource(task.manual)))
  }

  /** Warm starts of a different scale are screened out, as the service does. */
  def screen(sim: SparkClusterSim, manual: Config, warm: Vector[Config]): Vector[Config] = {
    val m = sim.resource(manual)
    warm.filter { w => val r = sim.resource(w); r >= 0.1 * m && r <= 2.0 * m }
  }
}

/** `fleet`: the Table 3 production recipe, a Spark Dataset job tuning many
  * short histories in parallel (`TuningService.tuneFleet`). */
final class FleetWorkload(spark: SparkSession, seed: Long) extends Workload {
  import Workload._
  val name = "fleet"
  val warmups = 2
  val n = 200
  val budget = 20
  private val replayed = 16
  private var fleet: Vector[ProdTask] = Vector.empty

  def record = Vector("fleet_size" -> n.toString, "budget" -> budget.toString,
    "fleet_seed" -> seed.toString, "with_meta" -> "true")

  def prepare(): Unit = { fleet = FleetGen.fleet(n, seed) }

  def batch(): Batch = {
    val (res, ms) = Clock.timed(Try(
      TuningService.tuneFleet(spark, fleet, budget = budget, withMeta = true).collect().toVector))
    res match {
      case Failure(e) => failedBatch(n, ms, e)
      case Success(rows) => Batch(n, failures(rows), ms, Vector.fill(n)(ms), digest(rows), quality(rows))
    }
  }

  private def failures(rows: Vector[FleetRow]): Int = {
    val cs = FleetGen.prodSpace
    val byName = rows.groupBy(_.name)
    def ok(r: FleetRow): Boolean =
      finite(r.preMemGBh, r.preCpuCoreH, r.preRuntime, r.preCost, r.underMemGBh, r.underCpuCoreH,
        r.underRuntime, r.postMemGBh, r.postCpuCoreH, r.postRuntime, r.postCost) &&
        r.bestIter >= 1 && r.bestIter <= budget &&
        Seq(SP.Instances -> r.instances, SP.ExecCores -> r.cores, SP.ExecMemory -> r.memoryGB)
          .forall { case (p, v) => cs.value(cs.withValue(SP.defaults(cs), p, v), p) == v }
    val bad = fleet.count(t => byName.get(t.name).forall(rs => rs.size != 1 || !ok(rs.head)))
    (bad + (rows.size - fleet.size).max(0)).min(n)
  }

  private def digest(rows: Seq[FleetRow]): String = {
    val d = new Digest
    rows.sortBy(_.name).foreach { r =>
      d.add(r.name)
      Seq(r.preMemGBh, r.preCpuCoreH, r.preRuntime, r.preCost, r.underMemGBh, r.underCpuCoreH,
        r.underRuntime, r.postMemGBh, r.postCpuCoreH, r.postRuntime, r.postCost,
        r.instances, r.cores, r.memoryGB).foreach(d.add)
      d.add(r.bestIter.toLong)
    }
    d.hex
  }

  /** Table 3's figure: mean post- vs pre-tuning cost reduction. */
  private def quality(rows: Seq[FleetRow]): Quality = Quality(
    100.0 * Stats.mean(rows.map(r => (r.preCost - r.postCost) / r.preCost)),
    Vector(("fleet_runtime_speedup", Stats.mean(rows.map(r => r.preRuntime / r.postRuntime)), "x")))

  def entryPointDigest(): Option[String] =
    if (seed == DefaultSeed) Some(digest(Table3Job.run(spark, n)._2)) else None

  /** Serial replay of the fleet outside Spark: the knowledge-base build,
    * then warm start and `tuneOne` per task, each timed. The first tasks'
    * histories are rebuilt with the same recipe for the layer replay. */
  def trace(batchMs: Double, setupMs: Double): TraceData = {
    val ((model, sources), kbMs) = Clock.timed(TuningService.buildKnowledgeBase())
    val spans = fleet.map { task =>
      val (warm, wMs) = Clock.timed(WarmStart.initialConfigs(model, MetaFeatures.fromSpec(task.spec), sources))
      val (row, ms) = Clock.timed(TuningService.tuneOne(task, budget, TunerSettings(), warm))
      (task, warm, row, wMs, ms)
    }
    val serialMs = kbMs + spans.map(s => s._4 + s._5).sum
    val recs = spans.take(replayed).map { case (task, warm, row, _, _) =>
      val (sim, _, objective) = recipe(task)
      val screened = screen(sim, task.manual, warm)
      val settings = TunerSettings(seed = task.spec.seed, nInit = 1)
      val h = new OnlineTuner(sim, objective, settings, task.manual +: screened)
        .tune(budget, startIter = TuningService.Window).history
      val rec = Recorded("Ours", sim, objective, h, TuningService.Window, 1 + screened.size,
        settings.seed, Vector.empty, 2 * TuningService.Window + budget,
        () => TuningService.tuneOne(task, budget, TunerSettings(), warm))
      val bestIter = h.all.indexWhere(_.objective == h.best.get.objective) + 1
      (rec, bestIter == row.bestIter)
    }
    val baselineRuns = fleet.take(2).map { t =>
      val (sim, _, obj) = recipe(t)
      (sim, obj, t.manual, budget, t.spec.seed)
    }
    // tuneFleet builds the knowledge base serially, before its Spark job, in every call.
    TraceData(recs.map(_._1), spans.map(_._5), serialMs, batchMs, kbMs, kbSharePct = 100.0 * kbMs / batchMs,
      warmStartMs = Stats.mean(spans.map(_._4)), timeBaselines(baselineRuns),
      (recs.count(_._2), recs.size),
      WarmStart.ensembleBases(model, MetaFeatures.fromSpec(fleet.head.spec), sources))
  }
}

/** `session`: one client in a closed loop, no Spark. Each session tunes one
  * of the eight Table-2 tasks with the production objective, meta-learned
  * warm starts and the Eq. 12 ensemble; a batch is every task under two
  * tuner seeds. Spark is started only by the traced run, for its what-if
  * job. */
final class SessionWorkload(spark: => SparkSession, seed: Long) extends Workload {
  import SessionWorkload.Session
  import Workload._
  val name = "session"
  val warmups = 1
  override val minOps = 100
  val budget = 30
  val seedsPerTask = 2
  private var tasks: Vector[ProdTask] = Vector.empty
  private var kb: (DistanceModel, Vector[SourceTask]) = _
  private var kbMs = Double.NaN

  def record = Vector("tasks" -> "FleetGen.eightTasks", "budget" -> budget.toString,
    "sessions_per_batch" -> (8 * seedsPerTask).toString, "kb_seed" -> seed.toString,
    "tuner_seeds" -> s"${seed * seedsPerTask}..${seed * seedsPerTask + seedsPerTask - 1} (+ task seed)")

  def prepare(): Unit = {
    tasks = FleetGen.eightTasks
    val (k, ms) = Clock.timed(TuningService.buildKnowledgeBase(seed = seed))
    kb = k
    kbMs = ms
  }

  private def sessions(): Vector[(Try[Session], Double)] =
    Vector.tabulate(tasks.size * seedsPerTask)(i =>
      Clock.timed(Try(SessionWorkload.run(tasks, kb, seed, seedsPerTask, budget, i))))

  private def ok(s: Session): Boolean = {
    val obs = s.history.all
    obs.size == budget && obs.forall(o =>
      inSpace(s.sim.cs, o.config) && finite(o.objective, o.result.runtimeSec, o.result.resource))
  }

  def batch(): Batch = {
    val t0 = System.nanoTime()
    val runs = sessions()
    val wall = Clock.ms(t0)
    val good = runs.collect { case (Success(s), _) if ok(s) => s }
    runs.collect { case (Failure(e), _) => System.err.println(s"perfbench: session failed: $e") }
    val d = new Digest
    runs.foreach {
      case (Success(s), _) =>
        s.history.all.foreach { o => o.config.values.foreach(d.add); d.add(o.objective) }
      case (Failure(e), _) => d.add(e.toString)
    }
    Batch(runs.size, runs.size - good.size, wall, runs.map(_._2), d.hex, quality(good))
  }

  private def bestOf(s: Session) = s.history.best.get

  private def quality(ss: Seq[Session]): Quality = {
    val obs = ss.flatMap(_.history.all)
    val ratio = Stats.mean(ss.map(s => bestOf(s).result.runtimeSec * bestOf(s).result.resource / s.manualCost))
    Quality(100.0 * (1.0 - ratio), Vector(
      ("session_safe_pct", 100.0 * obs.count(_.feasible) / obs.size.max(1), "%"),
      ("session_cost_ratio", ratio, "ratio"),
      ("session_runtime_speedup", Stats.mean(ss.map(s => s.preRt / bestOf(s).result.runtimeSec)), "x")))
  }

  def entryPointDigest(): Option[String] = None

  def trace(batchMs: Double, setupMs: Double): TraceData = {
    val runs = sessions()
    val done = runs.collect { case (Success(s), ms) => (s, ms) }
    val recs = done.take(tasks.size).zipWithIndex.map { case ((s, _), i) =>
      Recorded("Ours", s.sim, s.objective, s.history, TuningService.Window, s.nInit, s.tunerSeed,
        s.bases, TuningService.Window + budget,
        () => SessionWorkload.run(tasks, kb, seed, seedsPerTask, budget, i))
    }
    val baselineRuns = tasks.take(2).map { t =>
      val (sim, _, obj) = recipe(t)
      (sim, obj, t.manual, budget, t.spec.seed)
    }
    // What-if for the spark.* metrics: the same sessions as one Spark job,
    // one Spark task per session.
    val (ts, k, sd, spt, b) = (tasks, kb, seed, seedsPerTask, budget)
    val n = ts.size * spt
    val parallelMs = Clock.timed(spark.sparkContext.parallelize(0 until n, n)
      .map(i => SessionWorkload.run(ts, k, sd, spt, b, i).history.size).collect())._2
    // The session workload builds its knowledge base once, in set-up.
    TraceData(recs, runs.map(_._2), runs.map(_._2).sum, parallelMs, kbMs, kbSharePct = 100.0 * kbMs / setupMs,
      warmStartMs = Stats.mean(done.map(_._1.warmMs)), timeBaselines(baselineRuns),
      (recs.size, recs.size), done.headOption.map(_._1.bases).getOrElse(Vector.empty))
  }
}

object SessionWorkload {
  import Workload.{recipe, screen}

  final case class Session(sim: SparkClusterSim, objective: Objective, history: RunHistory,
                           manualCost: Double, preRt: Double, nInit: Int, tunerSeed: Long,
                           bases: Vector[(repro.surrogate.Surrogate, Double)], warmMs: Double)

  /** Session `i` of a batch: task `i % 8` under tuner seed slot `i / 8`. */
  def run(tasks: Vector[ProdTask], kb: (DistanceModel, Vector[SourceTask]), seed: Long,
          seedsPerTask: Int, budget: Int, i: Int): Session = {
    val task = tasks(i % tasks.size)
    val (model, sources) = kb
    val (sim, preRt, objective) = recipe(task)
    val meta = MetaFeatures.fromSpec(task.spec)
    val ((warm, bases), warmMs) = Clock.timed(
      (WarmStart.initialConfigs(model, meta, sources), WarmStart.ensembleBases(model, meta, sources)))
    val screened = screen(sim, task.manual, warm)
    val tunerSeed = seed * seedsPerTask + i / tasks.size + task.spec.seed
    val h = new OnlineTuner(sim, objective, TunerSettings(seed = tunerSeed, nInit = 1),
      task.manual +: screened, bases).tune(budget, startIter = TuningService.Window).history
    Session(sim, objective, h, preRt * sim.resource(task.manual), preRt,
      1 + screened.size, tunerSeed, bases, warmMs)
  }
}

/** `compare`: Figures 4/5, every HiBench spec × method × β × seed cell as
  * `HiBenchCompareJob.runOne`, sharded over a Dataset as `allCells` does. */
final class CompareWorkload(spark: SparkSession, seed: Long) extends Workload {
  import Workload._
  import HiBenchCompareJob.Cell
  val name = "compare"
  val warmups = 2
  val seedsPerCell = 3
  val budget = 30
  private var combos: Vector[(String, String, Long, Double)] = Vector.empty

  /** Seed slots of this run; at the default seed they are allCells' slots 0 until seedsPerCell. */
  private def slots: Seq[Long] = (0 until seedsPerCell).map(j => (seed - DefaultSeed) * seedsPerCell + j)

  def record = Vector("specs" -> "6", "methods" -> Baselines.all.size.toString, "betas" -> "1.0,0.5",
    "seeds_per_cell" -> seedsPerCell.toString, "budget" -> budget.toString,
    "cell_seeds" -> slots.map(s => s * 997 + 13).mkString(","))

  def prepare(): Unit = {
    combos = (for {
      t <- Specs.six.map(_.name)
      m <- Baselines.all.map(_.name)
      s <- slots
      b <- Seq(1.0, 0.5)
    } yield (t, m, s, b)).toVector
  }

  def batch(): Batch = {
    import spark.implicits._
    val b = budget
    val (res, ms) = Clock.timed(Try(spark.createDataset(combos)
      .repartition(spark.sparkContext.defaultParallelism * 2)
      .map { case (t, m, s, beta) => HiBenchCompareJob.runOne(t, m, beta, s * 997 + 13, b) }
      .collect().toVector))
    res match {
      case Failure(e) => failedBatch(combos.size, ms, e)
      case Success(cells) =>
        Batch(combos.size, failures(cells), ms, Vector.fill(combos.size)(ms), digest(cells), quality(cells))
    }
  }

  private def key(c: Cell) = (c.task, c.method, c.seed, c.beta)

  private def failures(cells: Vector[Cell]): Int = {
    val byKey = cells.groupBy(key)
    val bad = combos.count { case (t, m, s, beta) =>
      byKey.get((t, m, s * 997 + 13, beta)).forall(cs => cs.size != 1 || !finite(cs.head.best) || cs.head.best <= 0)
    }
    (bad + (cells.size - combos.size).max(0)).min(combos.size)
  }

  private def digest(cells: Seq[Cell]): String = {
    val d = new Digest
    cells.sortBy(c => (c.task, c.method, c.beta, c.seed)).foreach { c =>
      d.add(c.task).add(c.method).add(c.beta).add(c.seed).add(c.best)
    }
    d.hex
  }

  /** The guarded figure is Ours' cost reduction against the default
    * configuration (Figure 5's cells, β=0.5): with a few seeds per cell it
    * varies far less from seed to seed than the ratios against
    * RandomSearch, which are printed as the paper reports them. */
  private def quality(cells: Seq[Cell]): Quality = {
    val tasks = Specs.six.map(_.name)
    val rt = HiBenchCompareJob.means(cells, 1.0)
    val cost = HiBenchCompareJob.means(cells, 0.5).map { case (k, v) => k -> v * v }
    val ours = cells.filter(c => c.method == "Ours" && c.beta == 0.5)
    val ratio = Stats.mean(ours.map(c => c.best * c.best / defaultCost(c.task)))
    Quality(100.0 * (1.0 - ratio), Vector(
      ("compare_ours_speedup", Stats.mean(tasks.map(t => rt((t, "RandomSearch")) / rt((t, "Ours")))), "x"),
      ("compare_ours_cost_reduction_pct",
        100.0 * (1.0 - Stats.mean(tasks.map(t => cost((t, "Ours")) / cost((t, "RandomSearch"))))), "%")))
  }

  /** T·R of the default configuration's first run, the cell's first trial. */
  private def defaultCost(task: String): Double = {
    val sim = new SparkClusterSim(Specs.byName(task), HiBenchCompareJob.cs)
    val r = sim.run(SP.defaults(HiBenchCompareJob.cs), 0)
    r.runtimeSec * r.resource
  }

  def entryPointDigest(): Option[String] =
    if (seed == DefaultSeed) Some(digest(HiBenchCompareJob.allCells(spark, seedsPerCell, budget)))
    else None

  /** Serial replay outside Spark of the first seed slot's cells, one span
    * per cell; the serial time of the whole grid is scaled from it. The
    * cells of that slot on two specs are re-run through the tuner directly
    * to obtain their histories for the layer replay. */
  def trace(batchMs: Double, setupMs: Double): TraceData = {
    val cs = HiBenchCompareJob.cs
    val spans = combos.filter(_._3 == slots.head).map { case (t, m, s, beta) =>
      Clock.timed(HiBenchCompareJob.runOne(t, m, beta, s * 997 + 13, budget))
    }
    val serialMs = spans.map(_._2).sum * combos.size / spans.size
    val sample = spans.filter { case (c, _) => Specs.six.take(2).exists(_.name == c.task) }
    val recs = sample.map { case (c, _) =>
      val spec = Specs.byName(c.task)
      val sim = new SparkClusterSim(spec, cs)
      val default = SP.defaults(cs)
      val obj = Objective(beta = c.beta, tMax = 2.0 * sim.expectedRuntime(default, spec.inputGB))
      val tuner = Baselines.all.find(_.name == c.method).get
      val h = tuner.tune(sim, obj, budget, c.seed, Vector(default))
      val nInit = if (c.method == "Ours") TunerSettings().nInit else 1
      (Recorded(c.method, sim, obj, h, 0, nInit, c.seed, Vector.empty, budget,
        () => HiBenchCompareJob.runOne(c.task, c.method, c.beta, c.seed, budget)),
        h.bestObjective == c.best)
    }
    val ((model, sources), kbMs) = Clock.timed(TuningService.buildKnowledgeBase())
    val warmMs = Specs.six.map { spec =>
      val meta = MetaFeatures.fromSpec(spec)
      Clock.timed((WarmStart.initialConfigs(model, meta, sources), WarmStart.ensembleBases(model, meta, sources)))._2
    }
    // The cell grid uses no knowledge base: its share is 0 and the build is timed on its own.
    TraceData(recs.map(_._1), spans.map(_._2), serialMs, batchMs, kbMs, kbSharePct = 0.0,
      warmStartMs = Stats.mean(warmMs),
      spans.groupBy(_._1.method).map { case (m, v) => m -> v.map(_._2) },
      (recs.count(_._2), recs.size),
      WarmStart.ensembleBases(model, MetaFeatures.fromSpec(Specs.six.head), sources))
  }
}
