package perfbench

import scala.collection.mutable
import scala.util.Random
import repro.bo.{Agd, SafeRegion, Subspace}
import repro.core.{Objective, RunHistory}
import repro.env.SparkClusterSim
import repro.importance.FAnova
import repro.linalg.Lin
import repro.meta.TaskSimilarity
import repro.model.{Gbdt, RandomForest}
import repro.space.{Config, SparkParams}
import repro.surrogate.{Gp, MetaEnsemble, MixedKernel, Pred, Surrogate}

/** Busy time and call count per layer, accumulated from the benchmark's
  * own spans around calls into the program's public functions. */
final class Layers {
  private val ms = mutable.LinkedHashMap.empty[String, Double]
  private val n = mutable.LinkedHashMap.empty[String, Long]

  def time[A](layer: String)(f: => A): A = {
    val (a, t) = Clock.timed(f)
    add(layer, t)
    a
  }

  def add(layer: String, t: Double, calls: Long = 1): Unit = {
    ms(layer) = ms.getOrElse(layer, 0.0) + t
    n(layer) = n.getOrElse(layer, 0L) + calls
  }

  def totalMs(layer: String): Double = ms.getOrElse(layer, 0.0)
  def calls(layer: String): Long = n.getOrElse(layer, 0L)
  def perCallMs(layer: String): Double =
    if (calls(layer) == 0) Double.NaN else totalMs(layer) / calls(layer)
  /** Time spent in layers that partition an operation (no layer nests in another). */
  def attributedMs: Double = ms.values.sum
}

/** One traced operation: what ran and on which inputs.
  *
  * @param method    the tuner that ran: "Ours" for the OnlineTuner recipe,
  *                  otherwise a `Baselines.all` name
  * @param nInit     configurations the tuner evaluated before its first
  *                  model-based suggestion
  * @param bases     Eq. 12 ensemble bases the tuner received (session only)
  * @param simRuns   simulator executions the operation made in total
  * @param rerun     runs the operation again through its entry point, so that
  *                  its span is timed right next to its replay
  */
final case class Recorded(method: String, sim: SparkClusterSim, objective: Objective,
                          history: RunHistory, startIter: Int, nInit: Int, seed: Long,
                          bases: Vector[(Surrogate, Double)], simRuns: Int, rerun: () => Unit)

/** Replays, on recorded run histories, the layer calls each tuner makes per
  * iteration — GP fits, candidate generation and scoring, the Eq. 12
  * ensemble and its CV weight, AGD steps, fANOVA refits through
  * `Subspace.maybeRefit`, tree-model fits and simulator runs — and times
  * each call. Only public functions of the program are called, so the
  * replay measures the layers as they are, without tracing inside them.
  */
final class Replay(layers: Layers) {
  private val safeRegion = new SafeRegion(0.7)
  private var refits = 0
  private var refitsChanged = 0
  private var candidates = 0L
  private var feasibleCandidates = 0L

  def topkChangePct: Double = if (refits == 0) 0.0 else 100.0 * refitsChanged / refits
  def feasibleCandidatePct: Double =
    if (candidates == 0) 0.0 else 100.0 * feasibleCandidates / candidates

  private def kernelOf(r: Recorded, withDs: Boolean)(ls: Double) =
    MixedKernel.forSpace(r.sim.cs, withDataSize = withDs, numLs = 0.5 * ls, catLs = ls,
      dsLs = 0.5 * ls)

  private def dsUnit(r: Recorded, ds: Double): Double = (ds / (2.0 * r.sim.spec.inputGB)).min(1.0).max(0.0)

  private def encode(r: Recorded, c: Config, ds: Double, withDs: Boolean): Array[Double] = {
    val u = r.sim.cs.toUnit(c)
    if (withDs) u :+ dsUnit(r, ds) else u
  }

  private def logOf(v: Double): Double = math.log(v.max(1e-9))

  /** Replay one operation's layer calls. */
  def replay(r: Recorded): Unit = {
    replaySim(r)
    r.method match {
      case "Ours"         => replayOurs(r, withEnsemble = r.bases.nonEmpty)
      case "RandomSearch" => ()
      case "RFHOC"        => replayTrees(r, boosted = false)
      case "DAC"          => replayTrees(r, boosted = true)
      case "CherryPick"   => replayFullSpaceBo(r)
      case "Tuneful"      => replayPrunedBo(r, withDs = false)
      case "LOCAT"        => replayPrunedBo(r, withDs = true)
      case other          => throw new IllegalArgumentException(s"no replay model for $other")
    }
  }

  private def replaySim(r: Recorded): Unit = {
    val obs = r.history.all
    val reps = 20
    val t0 = System.nanoTime()
    var k = 0
    while (k < reps) { obs.foreach(o => r.sim.run(o.config, o.iter)); k += 1 }
    // Attribute the simulator time of the operation's own runs, not the repeats.
    val perRun = Clock.ms(t0) / (reps * obs.size)
    layers.add("env.sim_run", perRun * r.simRuns, r.simRuns.toLong)
  }

  /** Per-iteration calls of `OnlineTuner.suggest` plus the sub-space
    * bookkeeping `OnlineTuner.tune` does after each run. */
  private def replayOurs(r: Recorded, withEnsemble: Boolean): Unit = {
    val cs = r.sim.cs
    val obs = r.history.all
    val rng = new Random(r.seed)
    val subspace = new Subspace(cs, SparkParams.ExpertRanking)
    val agd = new Agd(cs, r.objective.beta, r.sim.resource)
    val nAgd = 5
    var sinceRefit = 0
    val seen = new RunHistory
    obs.indices.foreach { it =>
      if (it >= r.nInit) {
        val prefix = obs.take(it)
        val xs = prefix.map(o => encode(r, o.config, o.result.dataSizeGB, withDs = true)).toArray
        val yObj = prefix.map(o => logOf(o.objective)).toArray
        val yRt = prefix.map(o => logOf(o.result.runtimeSec)).toArray
        val nextDs = r.sim.spec.dataSizeAt(r.startIter + it)
        val gpObj = layers.time("surrogate.gp_fit")(Gp.fit(xs, yObj, kernelOf(r, withDs = true), 1e-3))
        val gpRt = layers.time("surrogate.gp_fit")(Gp.fit(xs, yRt, kernelOf(r, withDs = true), 1e-3))
        val objSurrogate: Surrogate =
          if (!withEnsemble) gpObj
          else {
            val w = layers.time("surrogate.cv_weight")(cvWeight(r, xs, yObj))
            new MetaEnsemble(r.bases.map(_._1) :+ gpObj, r.bases.map(_._2) :+ w)
          }
        val best = {
          val feas = prefix.filter(_.feasible)
          (if (feas.nonEmpty) feas else prefix).minBy(_.objective)
        }
        if ((it + 1) % nAgd == 0) {
          val rtNatural = new Surrogate {
            def predict(x: Array[Double]): Pred = {
              val p = gpRt.predict(x)
              Pred(math.exp(p.mean), p.variance)
            }
          }
          layers.time("bo.agd_step")(agd.step(best.config, rtNatural, Array(dsUnit(r, nextDs))))
        } else {
          val anchors = {
            val feas = prefix.filter(_.feasible)
            (if (feas.nonEmpty) feas else prefix).sortBy(_.objective).map(_.config).distinct.take(3)
          }
          val free = subspace.freeDims
          val cands = layers.time("space.candidates") {
            Vector.tabulate(160)(i => cs.sampleInSubspace(anchors(i % anchors.size), free, rng)) ++
              Vector.tabulate(200)(i => cs.perturbInSubspace(anchors(i % anchors.size), free, rng, sigma = 0.15)) ++
              Vector.fill(40)(cs.sampleRandom(rng))
          }
          val enc = cands.map(c => encode(r, c, nextDs, withDs = true))
          val pRt = layers.time("surrogate.score_batch")(enc.map(gpRt.predict))
          if (withEnsemble) layers.time("surrogate.ensemble_score_batch")(enc.map(objSurrogate.predict))
          else layers.time("surrogate.score_batch")(enc.map(objSurrogate.predict))
          countFeasible(r, cands, pRt)
        }
      }
      // After the run: streak counters and the periodic fANOVA refit.
      val o = obs(it)
      val improved = o.objective < seen.bestObjective && o.feasible
      seen.add(o)
      val wasAgd = (it + 1) % nAgd == 0
      if (!wasAgd && it >= r.nInit) subspace.observe(improved)
      val configs = obs.take(it + 1).map(_.config)
      val ys = obs.take(it + 1).map(x => logOf(x.objective))
      // Subspace refits every 5th call once 8 runs exist (its defaults).
      sinceRefit += 1
      if (configs.size >= 8 && sinceRefit >= 5) {
        sinceRefit = 0
        val before = subspace.freeDims
        layers.time("importance.fanova")(subspace.maybeRefit(configs, ys, r.seed + it))
        refits += 1
        if (subspace.freeDims != before) refitsChanged += 1
      } else subspace.maybeRefit(configs, ys, r.seed + it)
    }
  }

  private def countFeasible(r: Recorded, cands: Vector[Config], pRt: Vector[Pred]): Unit = {
    val logTMax = math.log(r.objective.tMax)
    cands.indices.foreach { i =>
      val resOk = r.sim.resource(cands(i)) <= r.objective.rMax
      val safe = r.objective.tMax.isPosInfinity || safeRegion.isSafe(Seq((pRt(i), logTMax)))
      if (resOk && safe) feasibleCandidates += 1
    }
    candidates += cands.size
  }

  /** The 3-fold rank-agreement weight of the current-task surrogate
    * (Eq. 12 ensemble), made from the same public calls the tuner makes. */
  private def cvWeight(r: Recorded, xs: Array[Array[Double]], ys: Array[Double]): Double = {
    if (xs.length < 6) return 0.3
    val taus = (0 until 3).flatMap { f =>
      val hold = xs.indices.filter(_ % 3 == f)
      val train = xs.indices.filterNot(_ % 3 == f)
      if (hold.size < 2 || train.size < 2) None
      else {
        val gp = Gp.fit(train.map(xs).toArray, train.map(ys).toArray, kernelOf(r, withDs = true), 1e-3)
        Some(TaskSimilarity.kendallTau(hold.map(i => gp.predict(xs(i)).mean), hold.map(ys)))
      }
    }
    if (taus.isEmpty) 0.3 else ((taus.sum / taus.size + 1.0) / 2.0).max(0.1)
  }

  /** RFHOC (random forest) and DAC (boosted trees): one model fit per
    * iteration after the six-run sample-collection phase. */
  private def replayTrees(r: Recorded, boosted: Boolean): Unit = {
    val obs = r.history.all
    (r.nInit + 6 until obs.size).foreach { it =>
      val prefix = obs.take(it)
      val ys = prefix.map(o => logOf(o.objective)).toArray
      if (boosted) {
        val xs = prefix.map(o => encode(r, o.config, o.result.dataSizeGB, withDs = true)).toArray
        layers.time("model.gbdt_fit")(Gbdt.fit(xs, ys, nTrees = 40, maxDepth = 3, seed = r.seed + it))
      } else {
        val xs = prefix.map(o => r.sim.cs.toUnit(o.config)).toArray
        layers.time("model.rf_fit")(RandomForest.fit(xs, ys, nTrees = 24, seed = r.seed + it))
      }
    }
  }

  /** CherryPick: objective and runtime GPs over the full space, 400
    * uniform candidates scored by both. */
  private def replayFullSpaceBo(r: Recorded): Unit = {
    val cs = r.sim.cs
    val obs = r.history.all
    val rng = new Random(r.seed)
    (r.nInit + 3 until obs.size).foreach { it =>
      val prefix = obs.take(it)
      val xs = prefix.map(o => cs.toUnit(o.config)).toArray
      val gp = layers.time("surrogate.gp_fit")(
        Gp.fit(xs, prefix.map(o => logOf(o.objective)).toArray, kernelOf(r, withDs = false), 1e-3))
      val gpRt = layers.time("surrogate.gp_fit")(
        Gp.fit(xs, prefix.map(o => logOf(o.result.runtimeSec)).toArray, kernelOf(r, withDs = false), 1e-3))
      val cands = layers.time("space.candidates")(cs.sampleRandom(rng, 400))
      val enc = cands.map(cs.toUnit)
      layers.time("surrogate.score_batch")(enc.map(gp.predict))
      layers.time("surrogate.score_batch")(enc.map(gpRt.predict))
    }
  }

  /** Tuneful and LOCAT: one fANOVA ranking at iteration 10, then a GP and
    * 360 candidates in the fixed top-8 sub-space per iteration. */
  private def replayPrunedBo(r: Recorded, withDs: Boolean): Unit = {
    val cs = r.sim.cs
    val obs = r.history.all
    val rng = new Random(r.seed)
    var free: Set[Int] = (0 until cs.dim).toSet
    (r.nInit + 3 until obs.size).foreach { it =>
      val prefix = obs.take(it)
      val ys = prefix.map(o => logOf(o.objective)).toArray
      if (it == 10) {
        val imp = layers.time("importance.fanova")(
          FAnova.importance(cs, prefix.map(_.config), ys.toSeq, nMc = 100, nGrid = 6, seed = r.seed))
        free = imp.ranking.take(8).toSet
      }
      val xs = prefix.map(o => encode(r, o.config, o.result.dataSizeGB, withDs)).toArray
      val gp = layers.time("surrogate.gp_fit")(Gp.fit(xs, ys, kernelOf(r, withDs), 1e-3))
      val anchor = prefix.filter(_.feasible).sortBy(_.objective).headOption
        .getOrElse(prefix.minBy(_.objective)).config
      val cands = layers.time("space.candidates")(
        Vector.fill(300)(cs.sampleInSubspace(anchor, free, rng)) ++ Vector.fill(60)(cs.sampleRandom(rng)))
      val ds = r.sim.spec.dataSizeAt(it)
      layers.time("surrogate.score_batch")(cands.map(c => gp.predict(encode(r, c, ds, withDs))))
    }
  }

  /** Cholesky factorisation of the GP Gram matrix at the history's final
    * size, repeated for a stable per-call time (it runs inside `Gp.fit`,
    * so it is reported on its own and not attributed). */
  def choleskyMs(r: Recorded, reps: Int = 200): Double = {
    val xs = r.history.all.map(o => encode(r, o.config, o.result.dataSizeGB, withDs = true)).toArray
    val k = kernelOf(r, withDs = true)(1.0)
    val gram = Array.tabulate(xs.length, xs.length)((i, j) => k(xs(i), xs(j)) + (if (i == j) 1e-3 else 0.0))
    Lin.cholesky(gram)
    val (_, t) = Clock.timed { var i = 0; while (i < reps) { Lin.cholesky(gram); i += 1 } }
    t / reps
  }
}
