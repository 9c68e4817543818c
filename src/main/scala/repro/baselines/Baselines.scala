package repro.baselines

import scala.util.Random
import repro.bo.SubspacePolicy
import repro.core.{CandidateMix, Objective, Observation, OnlineTuner, RunHistory, TunerSettings}
import repro.env.SparkClusterSim
import repro.model.{Gbdt, RandomForest}
import repro.space.{Config, ConfigSpace}

/** A black-box tuning strategy evaluated online against the simulator.
  * All baselines consume exactly the same per-iteration interface as the
  * paper's framework: suggest a config, observe one production run.
  */
trait BaselineTuner {
  def name: String
  /** Run `budget` online trials. `init` configs (e.g. the default/incumbent
    * configuration the job already runs with) are evaluated first and count
    * against the budget — every method starts from the same knowledge. */
  def tune(sim: SparkClusterSim, objective: Objective, budget: Int, seed: Long,
           init: Vector[Config] = Vector.empty): RunHistory
}

private object BaselineUtil {
  def observe(sim: SparkClusterSim, objective: Objective, h: RunHistory,
              c: Config, iter: Int): Observation = {
    val r = sim.run(c, iter)
    val o = Observation(c, r, objective.value(r), objective.feasible(r), iter)
    h.add(o)
    o
  }

  private val Generations = 8
  private val PopSize = 40

  /** Simple generational GA over unit space searching `fitness` (lower is
    * better) — the search engine of RFHOC [7] and DAC [79]. */
  def gaSearch(cs: ConfigSpace, seedPop: Vector[Config], fitness: Config => Double,
               rng: Random): Config = {
    var pop = (seedPop ++ cs.sampleRandom(rng, PopSize)).take(PopSize)
    var g = 0
    while (g < Generations) {
      val scored = pop.map(c => (c, fitness(c))).sortBy(_._2)
      val elite = scored.take(PopSize / 4).map(_._1)
      val children = Vector.fill(PopSize - elite.size) {
        val a = cs.toUnit(elite(rng.nextInt(elite.size)))
        val b = cs.toUnit(elite(rng.nextInt(elite.size)))
        val x = Array.tabulate(cs.dim)(i => if (rng.nextBoolean()) a(i) else b(i))
        // Mutation.
        var i = 0
        while (i < cs.dim) {
          if (rng.nextDouble() < 0.15)
            x(i) = if (cs.isCat(i)) cs.choiceUnit(i, rng.nextInt(cs.cardinality(i)))
                   else (x(i) + rng.nextGaussian() * 0.15).max(0.0).min(1.0)
          i += 1
        }
        cs.fromUnit(x)
      }
      pop = elite ++ children
      g += 1
    }
    pop.minBy(fitness)
  }
}

/** Random Search [8]: a uniform random configuration per iteration. */
final class RandomSearch extends BaselineTuner {
  val name = "RandomSearch"
  def tune(sim: SparkClusterSim, objective: Objective, budget: Int, seed: Long,
           init: Vector[Config]): RunHistory = {
    val rng = new Random(seed)
    val h = new RunHistory
    (0 until budget).foreach { i =>
      val c = if (i < init.size) init(i) else sim.cs.sampleRandom(rng)
      BaselineUtil.observe(sim, objective, h, c, i)
    }
    h
  }
}

/** RFHOC [7] and DAC [79]: a tree performance model fitted on the
  * log-objective + genetic-algorithm search over it. Designed for offline
  * sample collection; here they receive the same online budget (each GA
  * proposal costs one production run), which is the §6.3 finding — "ML
  * models often need a large number of training samples, and 30
  * iterations are not sufficient". After `init`, six random configs form
  * the sample-collection phase. `withDataSize` appends the run's data size
  * to the model input (DAC). */
private final class ModelGa(val name: String, withDataSize: Boolean,
                            fit: (Array[Array[Double]], Array[Double], Long) => Array[Double] => Double)
    extends BaselineTuner {
  def tune(sim: SparkClusterSim, objective: Objective, budget: Int, seed: Long,
           init: Vector[Config]): RunHistory = {
    val cs = sim.cs
    val rng = new Random(seed)
    val h = new RunHistory
    def enc(c: Config, ds: Double): Array[Double] = OnlineTuner.encode(sim, c, ds, withDataSize)
    (0 until budget).foreach { it =>
      val c =
        if (it < init.size) init(it)
        else if (it < init.size + 6) cs.sampleRandom(rng)
        else {
          val model = fit(h.all.map(o => enc(o.config, o.result.dataSizeGB)).toArray,
            h.all.map(o => math.log(o.objective.max(1e-9))).toArray, seed + it)
          val nextDs = sim.spec.dataSizeAt(it)
          val seedPop = h.all.sortBy(_.objective).take(5).map(_.config).toVector
          BaselineUtil.gaSearch(cs, seedPop, cc => model(enc(cc, nextDs)), rng)
        }
      BaselineUtil.observe(sim, objective, h, c, it)
    }
    h
  }
}

/** A BO method of §6.3 as an [[OnlineTuner]] preset. Its initial design
  * is `init` followed by three low-discrepancy configs (Halton seed
  * `seed + ldsOffset`); every later trial is a preset BO proposal. */
private final class BoPreset(val name: String, preset: TunerSettings, ldsOffset: Long)
    extends BaselineTuner {
  def tune(sim: SparkClusterSim, objective: Objective, budget: Int, seed: Long,
           init: Vector[Config]): RunHistory = {
    val warm = init ++ sim.cs.sampleLowDiscrepancy(3, seed + ldsOffset)
    new OnlineTuner(sim, objective, preset.copy(seed = seed, nInit = 0), warm)
      .tune(budget).history
  }
}

/** The paper's framework wrapped in the same baseline interface
  * (meta-learning off — §6.3 end-to-end comparisons don't use it). */
final class Ours extends BaselineTuner {
  val name = "Ours"
  def tune(sim: SparkClusterSim, objective: Objective, budget: Int, seed: Long,
           init: Vector[Config]): RunHistory =
    new OnlineTuner(sim, objective, TunerSettings(seed = seed), init).tune(budget).history
}

object Baselines {
  /** RFHOC [7]: random-forest performance models + GA search. */
  val rfhoc: BaselineTuner = new ModelGa("RFHOC", withDataSize = false,
    (xs, ys, seed) => RandomForest.fit(xs, ys, nTrees = 24, seed = seed).predict)

  /** DAC [79]: datasize-aware hierarchical regression-tree models (boosted
    * trees here) + GA, with the data size as an extra model feature. */
  val dac: BaselineTuner = new ModelGa("DAC", withDataSize = true,
    (xs, ys, seed) => Gbdt.fit(xs, ys, nTrees = 40, maxDepth = 3, seed = seed).predict)

  /** CherryPick [2]: vanilla constrained BO (EIC) over the full space —
    * no space reduction, no safe region, no datasize awareness, no AGD,
    * and plain random candidates ("CherryPick does not reduce the
    * dimension of search space when training the surrogate model, thus it
    * cannot handle the large Spark search space well", §6.3). */
  val cherryPick: BaselineTuner = new BoPreset("CherryPick", TunerSettings(
    candidates = CandidateMix(inSubspace = 0, local = 0, global = 400, anchors = 1),
    useSafety = false, subspace = SubspacePolicy.Full, useAgd = false,
    useDataSize = false), ldsOffset = 2)

  private val tunefulSettings = TunerSettings(
    candidates = CandidateMix(inSubspace = 300, local = 0, global = 60, anchors = 1),
    useSafety = false, useEic = false, subspace = SubspacePolicy.PrunedAfter(10, 8),
    useAgd = false, useDataSize = false)

  /** Tuneful [24]: online BO that prunes the space to the most influential
    * parameters after an exploration phase ("require 10 to 20 executions
    * before shrinking the search space", §6.3): full-space EI until 10
    * runs, then a *fixed* top-8 sub-space by fANOVA on its own history. */
  val tuneful: BaselineTuner = new BoPreset("Tuneful", tunefulSettings, ldsOffset = 0)

  /** LOCAT [76]: datasize-aware online BO for Spark SQL with importance-based
    * space pruning — Tuneful plus the data size as a GP input. Differs from
    * ours by lacking the safe region, adaptive sub-space sizing, AGD and
    * meta-learning. */
  val locat: BaselineTuner =
    new BoPreset("LOCAT", tunefulSettings.copy(useDataSize = true), ldsOffset = 1)

  /** All §6.3 comparison methods, paper order. */
  def all: Vector[BaselineTuner] =
    Vector(new RandomSearch, rfhoc, dac, cherryPick, tuneful, locat, new Ours)
}
