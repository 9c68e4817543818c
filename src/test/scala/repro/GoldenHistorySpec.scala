package repro

import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.Baselines
import repro.bo.SubspacePolicy
import repro.core.{Objective, OnlineTuner, RunHistory, TunerSettings, TuningService}
import repro.env.{FleetGen, SparkClusterSim, Workloads}
import repro.meta.{MetaFeatures, WarmStart}
import repro.space.{SparkParams => SP}

/** Golden histories: under fixed seeds every tuning session is a pure
  * function of its inputs, so a refactor of the tuning loop must reproduce
  * these digests bit for bit. A digest that has to move is re-recorded
  * together with the reason it moved.
  *
  * A history digest is the SHA-256 of every observation's config vector and
  * objective (raw IEEE-754 bits, in order). `TuningService.tuneOne` returns
  * a `FleetRow`, not its history; its digest covers every field of the row,
  * which the history determines (under-tuning averages, best config).
  */
class GoldenHistorySpec extends AnyFunSuite {
  private val cs = FleetGen.hibenchSpace

  private def sha256(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes("UTF-8"))
      .map(b => f"${b & 0xff}%02x").mkString

  private def bits(d: Double): String = java.lang.Long.toHexString(java.lang.Double.doubleToLongBits(d))

  private def digest(h: RunHistory): String =
    sha256(h.all.map(o => (o.config.values :+ o.objective).map(bits).mkString(",")).mkString("\n"))

  /** (simulator, objective with tMax = 2× the default runtime, default config). */
  private def hibench(task: String, beta: Double) = {
    val spec = Workloads.byName(task)
    val sim = new SparkClusterSim(spec, cs)
    val default = SP.defaults(cs)
    (sim, Objective(beta, tMax = 2.0 * sim.expectedRuntime(default, spec.inputGB)), default)
  }

  private val tunerGolden = Seq(
    ("terasort", 0.5, 3L) -> "caab2609b7785fb6a7a9cecdb2db38c0f69eb406994210f4026e6e00c8a28038",
    ("kmeans", 1.0, 13L) -> "7cd41ccc892c5b010fededc18b1a84043b940fc43174c6e22978378fe4a593f1")

  tunerGolden.foreach { case ((task, beta, seed), expected) =>
    test(s"OnlineTuner history on $task (beta=$beta, seed=$seed)") {
      val (sim, obj, default) = hibench(task, beta)
      val h = new OnlineTuner(sim, obj, TunerSettings(seed = seed), Vector(default)).tune(30).history
      assert(digest(h) == expected)
    }
  }

  // The §6.5 ablation settings (BenchSubspaceAgd) on pagerank, beta = 0.5, seed 3.
  private val ablationGolden = Seq(
    ("frozen 6-dim sub-space", TunerSettings(seed = 3, subspace = SubspacePolicy.FixedSize(6)),
      "773496e418a2a1c33a68ff5e5c42d45efb0f9159b48892d6ae36a4c34bc4eff4"),
    ("full space", TunerSettings(seed = 3, subspace = SubspacePolicy.Full),
      "05faf5577083ea60c706f37e8f961e93fcf7b6b9f72545436e70119831051770"),
    ("no safety, no EIC", TunerSettings(seed = 3, useSafety = false, useEic = false),
      "77b132cdfcdfd46aba3528fda5d5e6cd9d30e9bfd0d298edebf647b827660f73"),
    ("no AGD", TunerSettings(seed = 3, useAgd = false),
      "be1b886859d409a8d37403524d487b87b029c6ee49c559929503c59b9d18fc1d"))

  ablationGolden.foreach { case (label, settings, expected) =>
    test(s"OnlineTuner history on pagerank with $label") {
      val (sim, obj, default) = hibench("pagerank", 0.5)
      val h = new OnlineTuner(sim, obj, settings, Vector(default)).tune(30).history
      assert(digest(h) == expected)
    }
  }

  private val fleetGolden = Seq(
    0 -> "fb946b85579a9123a47295a2bdeaf44e3c15a80ffcdaa1c97c9bb3c571ff4391",
    1 -> "4db97328b51527276899226be3cf3dbf5cf5ee09880fb6df12805ad239005171")

  fleetGolden.foreach { case (i, expected) =>
    test(s"TuningService.tuneOne row of fleet task $i") {
      val task = FleetGen.fleet(2, seed = 42)(i)
      val row = TuningService.tuneOne(task, budget = 20)
      assert(sha256(row.productIterator.map {
        case d: Double => bits(d)
        case x         => x.toString
      }.mkString(",")) == expected)
    }
  }

  // The meta-learning path (§5): knowledge base → learned task distance →
  // warm-start configs for a fleet task. The digest covers the task's
  // distance to every source and the warm-start config vectors.
  // Re-recorded when categoricals moved to cell-centre encodings: the task
  // distance now probes the surrogates with encodings of legal configs
  // (integers snapped, categoricals at their cell centres) instead of raw
  // unit draws, so the distance labels and the learned model moved.
  // Re-recorded again when source surrogates moved to the tuner's GP recipe
  // (`Gp.fitMixed`): their noise level went from 1e-4 to the tuner's 1e-3,
  // so their predictions, the Kendall-tau distance labels and the learned
  // model moved.
  test("knowledge-base task distances and warm start for fleet task 0") {
    val (model, sources) = TuningService.buildKnowledgeBase()
    val meta = MetaFeatures.fromSpec(FleetGen.fleet(2, seed = 42).head.spec)
    val dists = sources.map(s => model.distance(meta, s.metaFeatures))
    val warm = WarmStart.initialConfigs(model, meta, sources)
    assert(sha256((dists +: warm.map(_.values)).map(_.map(bits).mkString(",")).mkString("\n")) ==
      "a6523d60ea394e16247cebd7c3c3af140685e19b5862a4d21842a1c52c121798")
  }

  // LOCAT was re-recorded when categoricals moved to cell-centre encodings:
  // fANOVA now sees the third `io.compression.codec` choice, so LOCAT's
  // one pruning fit after 10 runs keeps a different top-8 sub-space.
  private val baselineGolden = Map(
    "RandomSearch" -> "d12d99387ff7d1e5e15bb94d8d3645e40480091a401c87355dd9ac208888a34f",
    "RFHOC" -> "b5999bff9be6aa0b1c5fd2a893170373365297319f9e199dc56af5173f77a18f",
    "DAC" -> "4de26d97d81ebbf41c20c27db91a2e0d54622b2171cefb9793f9aa169784aca4",
    "CherryPick" -> "6d81eed72016b84679c642d21424fddf024c7ffd17dba04accd4ed8894a35f33",
    "Tuneful" -> "9411d3f471ff7b419ee4f6739ddc31d6cf86a289eb53ea0d5093af274ac0f6bd",
    "LOCAT" -> "023558890eb18bc98a2aa3de8de1b0cbf85d5f49cd992c355462c787898fa405",
    "Ours" -> "379a6a0cb54524efacab54b079913bec40e6ff16bcb243ebf4d24042bc8be072")

  test("every Baselines.all method has a golden entry") {
    assert(Baselines.all.map(_.name).toSet == baselineGolden.keySet)
  }

  Baselines.all.foreach { m =>
    test(s"${m.name} history on wordcount (budget 30, tMax = 2x default)") {
      val (sim, obj, default) = hibench("wordcount", 0.5)
      val h = m.tune(sim, obj, budget = 30, seed = 13, init = Vector(default))
      assert(digest(h) == baselineGolden(m.name))
    }
  }
}
