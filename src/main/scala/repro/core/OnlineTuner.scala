package repro.core

import scala.util.Random
import repro.bo.{Acquisition, Agd, SafeRegion, Subspace, SubspacePolicy}
import repro.env.SparkClusterSim
import repro.meta.TaskSimilarity
import repro.space.{Config, ConfigSpace, SparkParams}
import repro.surrogate.{Gp, MetaEnsemble, Pred, Surrogate}

/** Candidate configurations scored per BO proposal: uniform draws inside
  * the sub-space, local perturbations of it, and global uniform draws over
  * the whole space. Non-free dimensions of the sub-space draws are pinned to
  * the best `anchors` distinct observed configs, used in turn. */
final case class CandidateMix(inSubspace: Int, local: Int, global: Int, anchors: Int)

/** Feature switches of the tuning framework.
  *
  * The paper's constants live where they are used: the sub-space sizing
  * and refit schedule in `Subspace` (§4.1), γ = 0.7 in `SafeRegion` (§4.2),
  * η = 0.001 in `Agd` and N_AGD = 5 in `OnlineTuner` (§4.3). Baselines and
  * ablations are expressed by flipping the `use*` flags and choosing the
  * sub-space policy and candidate mix (see `Baselines`).
  */
final case class TunerSettings(
    nInit: Int = 3,
    candidates: CandidateMix = CandidateMix(inSubspace = 160, local = 200, global = 40, anchors = 3),
    useSafety: Boolean = true,
    useEic: Boolean = true,          // constraint-weighted acquisition (Eq. 6)
    subspace: SubspacePolicy = SubspacePolicy.Adaptive,
    useAgd: Boolean = true,
    useDataSize: Boolean = true,
    stopEi: Double = 0.0,            // >0 enables the §3.3 stopping criterion
    seed: Long = 0L)

/** Outcome of a tuning session. */
final case class TuneOutcome(history: RunHistory, stoppedAt: Option[Int])

/** The OnlineTune controller (§3.1): orchestrates the per-execution tuning
  * loop against a (simulated) data platform.
  *
  * Each call to the platform = one periodic production run of the job; no
  * offline evaluations happen anywhere (the online paradigm, C.2).
  *
  * Surrogates are fit on log-runtime / log-objective: both are positive
  * with multiplicative noise, and the 10%-EI stopping rule of §3.3 becomes
  * a clean absolute threshold in log space.
  */
final class OnlineTuner(sim: SparkClusterSim,
                        objective: Objective,
                        settings: TunerSettings = TunerSettings(),
                        warmStart: Vector[Config] = Vector.empty,
                        metaBases: Vector[(Surrogate, Double)] = Vector.empty) {
  import OnlineTuner.NAgd

  private val cs: ConfigSpace = sim.cs
  private val rng = new Random(settings.seed)
  private val safeRegion = new SafeRegion()

  private def encode(c: Config, dsGB: Double): Array[Double] =
    OnlineTuner.encode(sim, c, dsGB, settings.useDataSize)

  /** Cross-validation weight of the current-task surrogate in the Eq. 12
    * ensemble [25]: mean held-out rank agreement, floored for cold start. */
  private def currentTaskWeight(xs: Array[Array[Double]], ys: Array[Double]): Double = {
    if (xs.length < 6) return 0.3
    val folds = 3
    val taus = (0 until folds).flatMap { f =>
      val hold = xs.indices.filter(_ % folds == f)
      val train = xs.indices.filterNot(_ % folds == f)
      if (hold.size < 2 || train.size < 2) None
      else {
        val gp = Gp.fitMixed(cs, settings.useDataSize, train.map(xs).toArray, train.map(ys).toArray)
        val pred = hold.map(i => gp.predict(xs(i)).mean)
        val act = hold.map(ys)
        Some(TaskSimilarity.kendallTau(pred, act))
      }
    }
    if (taus.isEmpty) 0.3 else (((taus.sum / taus.size) + 1.0) / 2.0).max(0.1)
  }

  /** Run the online tuning session for `budget` production executions.
    *
    * @param startIter index of the first production run (data-size drift
    *                  phase); lets callers model pre-tuning manual runs.
    */
  def tune(budget: Int, startIter: Int = 0): TuneOutcome = {
    val history = new RunHistory
    val subspace = new Subspace(cs, SparkParams.ExpertRanking, settings.subspace, settings.seed)
    val agd = new Agd(cs, objective.beta, sim.resource)
    // At least one config: the first BO proposal needs a history to fit on.
    val initConfigs: Vector[Config] = {
      val n = settings.nInit.max(1)
      (warmStart ++ cs.sampleLowDiscrepancy(n, settings.seed)).take(n.max(warmStart.size))
    }
    var stoppedAt: Option[Int] = None

    var it = 0
    while (it < budget && stoppedAt.isEmpty) {
      val globalIter = startIter + it
      val nextDs = sim.spec.dataSizeAt(globalIter)
      val agdTurn = settings.useAgd && (history.size + 1) % NAgd == 0
      val config: Config =
        if (it < initConfigs.size) initConfigs(it)
        else suggest(history, subspace.freeDims, agdTurn, agd, nextDs) match {
          case Right(c) => c
          case Left(maxEi) => // stopping criterion fired
            stoppedAt = Some(it)
            history.best.get.config
        }
      if (stoppedAt.isEmpty) {
        val result = sim.run(config, globalIter)
        val y = objective.value(result)
        val improved = y < history.bestObjective && objective.feasible(result)
        history.add(Observation(config, result, y, objective.feasible(result), globalIter))
        // AGD iterations are not sub-space proposals — the TuRBO-style
        // streak counters only track the BO acquisitions (§4.1).
        if (!agdTurn && it >= initConfigs.size) subspace.observe(improved)
        subspace.maybeRefit(history.all.map(_.config),
          history.all.map(o => math.log(o.objective.max(1e-9))), settings.seed + it)
      }
      it += 1
    }
    TuneOutcome(history, stoppedAt)
  }

  /** Algorithm 2: one configuration suggestion. Returns Left(maxEI) when
    * the stopping criterion fires (§3.3). */
  private def suggest(history: RunHistory, free: Set[Int], agdTurn: Boolean, agd: Agd,
                      nextDs: Double): Either[Double, Config] = {
    val obs = history.all
    val xs = obs.map(o => encode(o.config, o.result.dataSizeGB)).toArray
    val yObj = obs.map(o => math.log(o.objective.max(1e-9))).toArray

    val gpObjLocal = Gp.fitMixed(cs, settings.useDataSize, xs, yObj)
    // The runtime GP is fitted only when AGD, the safe region or EIC use it.
    lazy val gpRt = Gp.fitMixed(cs, settings.useDataSize, xs,
      obs.map(o => math.log(o.result.runtimeSec.max(1e-9))).toArray)
    val objSurrogate: Surrogate =
      if (metaBases.isEmpty) gpObjLocal
      else {
        val wCur = currentTaskWeight(xs, yObj)
        new MetaEnsemble((metaBases.map(_._1) :+ gpObjLocal),
                         (metaBases.map(_._2) :+ wCur))
      }

    val ranked = history.ranked
    val best = ranked.head
    val yBestLog = math.log(best.objective.max(1e-9))

    // --- AGD branch (every N_AGD iterations; Algorithm 2 lines 2–4) -----
    if (agdTurn) {
      val rtForAgd = new Surrogate { // expose runtime on the natural scale
        def predict(x: Array[Double]): Pred = {
          val p = gpRt.predict(x)
          Pred(math.exp(p.mean), p.variance)
        }
      }
      // The model inputs after the config dims: the data size, if used.
      val dsExtra = encode(best.config, nextDs).drop(cs.dim)
      return Right(cs.clip(agd.step(best.config, rtForAgd, dsExtra)))
    }

    // --- BO branch: sub-space ∩ safe region, EIC argmax (lines 6–8) ----
    // Non-subspace dims are pinned to an anchor; using the top configs
    // (not just the incumbent) as anchors avoids locking a pathological
    // pinned value in place for the rest of the session.
    val mix = settings.candidates
    val anchors: Vector[Config] = ranked.map(_.config).distinct.take(mix.anchors)
    def anchorAt(i: Int): Config = anchors(i % anchors.size)
    // TuRBO-style mixture inside the sub-space: uniform coverage of the
    // free dims plus local moves around the incumbents, with a global
    // stream over the whole space.
    val candidates: Vector[Config] =
      Vector.tabulate(mix.inSubspace)(i => cs.sampleInSubspace(anchorAt(i), free, rng)) ++
        Vector.tabulate(mix.local)(i => cs.perturbInSubspace(anchorAt(i), free, rng, sigma = 0.15)) ++
        Vector.fill(mix.global)(cs.sampleRandom(rng))

    // Resource constraint is analytic (white-box resource, §4.3).
    val resourceOk = candidates.filter(c => sim.resource(c) <= objective.rMax)
    val pool0 = if (resourceOk.nonEmpty) resourceOk else candidates

    // Runtime constraint via the safe region and/or EIC, under a finite tMax.
    val rtBound = !objective.tMax.isPosInfinity
    val withSafety = settings.useSafety && rtBound
    val withEic = settings.useEic && rtBound
    val scored = pool0.map { c =>
      val x = encode(c, nextDs)
      val rt = if (withSafety || withEic) Seq((gpRt.predict(x), math.log(objective.tMax))) else Nil
      (c, x, rt)
    }
    val pool =
      if (!withSafety) scored
      else {
        val safe = scored.filter(s => safeRegion.isSafe(s._3))
        if (safe.nonEmpty) safe
        else {
          // Cold start / empty safe set: expand conservatively from the
          // incumbent instead of free-ranging — keep only the quartile
          // with the lowest runtime upper bound (SafeOpt-style, [69]).
          val ranked = scored.sortBy(s => safeRegion.upperBound(s._3.head._1))
          ranked.take((ranked.size / 4).max(1))
        }
      }

    val (bestCand, maxEic) = pool.map { case (c, x, rt) =>
      (c, Acquisition.eic(objSurrogate.predict(x), yBestLog, if (withEic) rt else Nil))
    }.maxBy(_._2)
    if (settings.stopEi > 0 && obs.size > settings.nInit && maxEic < settings.stopEi)
      Left(maxEic)
    else Right(bestCand)
  }

  /** §3.3 restarting criterion: continuous degradation — the incumbent's
    * recent actual results exceed the expected (historical incumbent)
    * objective by `tol` for `window` consecutive runs. */
  def degradationDetected(history: RunHistory, window: Int = 3, tol: Double = 0.3): Boolean = {
    val obs = history.all
    if (obs.size < window + 1) return false
    val recent = obs.takeRight(window)
    val expected = obs.dropRight(window).map(_.objective).min
    recent.forall(_.objective > expected * (1.0 + tol))
  }
}

object OnlineTuner {
  /** N_AGD (§4.3): every fifth run is an AGD step. */
  private val NAgd = 5

  /** Model input of a run of `c` at data size `dsGB`: the unit encoding of
    * `c`, followed, when `withDataSize` (§3.3 Dynamic Workload Support),
    * by the data size as a fraction of twice the task's nominal input,
    * clipped to [0,1]. */
  def encode(sim: SparkClusterSim, c: Config, dsGB: Double, withDataSize: Boolean): Array[Double] = {
    val u = sim.cs.toUnit(c)
    if (withDataSize) u :+ (dsGB / (2.0 * sim.spec.inputGB)).min(1.0).max(0.0) else u
  }
}
