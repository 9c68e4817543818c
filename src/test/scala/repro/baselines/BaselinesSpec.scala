package repro.baselines

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Objective, TunerSettings}
import repro.env.{FleetGen, SparkClusterSim, Workloads}
import repro.space.{SparkParams => SP}

class BaselinesSpec extends AnyFunSuite {
  private val cs = FleetGen.hibenchSpace
  private val sim = new SparkClusterSim(Workloads.WordCount, cs)
  private val default = SP.defaults(cs)
  private val defRt = sim.expectedRuntime(default, Workloads.WordCount.inputGB)
  private val obj = Objective(0.5, tMax = 2.0 * defRt)

  test("all §6.3 methods are present, names unique, ours included") {
    val names = Baselines.all.map(_.name)
    assert(names == Vector("RandomSearch", "RFHOC", "DAC", "CherryPick",
      "Tuneful", "LOCAT", "Ours"))
    assert(names.distinct.size == names.size)
  }

  test("every baseline produces exactly budget observations") {
    Baselines.all.foreach { b =>
      val h = b.tune(sim, obj, budget = 8, seed = 1, init = Vector(default))
      assert(h.size == 8, b.name)
    }
  }

  test("every baseline evaluates the init config first") {
    Baselines.all.foreach { b =>
      val h = b.tune(sim, obj, budget = 6, seed = 2, init = Vector(default))
      assert(h.all.head.config == default, b.name)
    }
  }

  test("every baseline's history improves on (or matches) its first trial") {
    Baselines.all.foreach { b =>
      val h = b.tune(sim, obj, budget = 12, seed = 3, init = Vector(default))
      assert(h.bestObjective <= h.all.head.objective, b.name)
    }
  }

  test("baselines are deterministic in their seed") {
    val t = Baselines.tuneful
    def run(seed: Long) = t.tune(sim, obj, 8, seed, Vector(default)).all.map(_.objective)
    assert(run(11) == run(11))
  }

  test("BO presets choose only configs within the resource cap and the space's bounds") {
    // Cap at the median resource of random configs: about half of every
    // candidate batch exceeds it, and plenty of candidates respect it.
    val rMax = {
      val rs = cs.sampleRandom(new Random(9), 201).map(sim.resource).sorted
      rs(100)
    }
    val capped = obj.copy(rMax = rMax)
    for (b <- Seq(Baselines.cherryPick, Baselines.tuneful, Baselines.locat, new Ours);
         seed <- Seq(4L, 5L)) {
      val initial = if (b.name == "Ours") TunerSettings().nInit else 1 + 3
      val chosen = b.tune(sim, capped, 20, seed, Vector(default)).all.drop(initial).map(_.config)
      chosen.foreach { c =>
        assert(sim.resource(c) <= rMax, s"${b.name} seed $seed")
        assert(cs.clip(c) == c, s"${b.name} seed $seed")
      }
    }
  }

  test("GA search improves the fitness over its seed population") {
    val rng = new Random(5)
    val target = cs.toUnit(FleetGen.manualConfig(cs, 16, 4, 8))
    def fitness(c: repro.space.Config): Double =
      cs.toUnit(c).zip(target).map { case (a, b) => (a - b) * (a - b) }.sum
    val seedPop = cs.sampleRandom(rng, 5)
    val best = BaselineUtilProbe.ga(cs, seedPop, fitness, rng)
    assert(fitness(best) < seedPop.map(fitness).min)
  }

  test("BO-based baselines beat random search on average (seeded smoke)") {
    def bestOf(b: BaselineTuner, seeds: Seq[Long]): Double =
      seeds.map(s => b.tune(sim, obj, 15, s, Vector(default)).bestObjective).sum / seeds.size
    // Smoke-level check only (15 iters, 3 seeds, one task) — the real
    // comparison with 30 iters × 6 tasks is BenchFigure45.
    val seeds = Seq(1L, 2L, 3L)
    val rs = bestOf(new RandomSearch, seeds)
    val ours = bestOf(new Ours, seeds)
    assert(ours <= rs * 1.15)
  }
}

/** Exposes the package-private GA for testing. */
object BaselineUtilProbe {
  def ga(cs: repro.space.ConfigSpace, seedPop: Vector[repro.space.Config],
         fitness: repro.space.Config => Double, rng: Random): repro.space.Config =
    BaselineUtil.gaSearch(cs, seedPop, fitness, rng)
}
