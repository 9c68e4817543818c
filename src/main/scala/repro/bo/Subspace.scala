package repro.bo

import repro.importance.FAnova
import repro.space.{Config, ConfigSpace}

/** The sub-space policy of a BO step (§4.1): which dimensions a proposal
  * may vary, and when fANOVA runs.
  *
  * The ranking starts from the expert prior. Under `Adaptive` and
  * `FixedSize` it is refreshed every 5 runs once 8 exist, blending each
  * fANOVA refit into running scores; `Adaptive` also sizes the sub-space
  * TuRBO-style: τ_succ=3 consecutive improvements grow it by 2 (up to
  * K_max = dim), τ_fail=5 consecutive non-improvements shrink it by 2
  * (down to K_min=4) from K_init=10; counters reset on every resize.
  * `PrunedAfter` fits fANOVA once, with `seed`, when the history first
  * holds `n` runs.
  */
final class Subspace(cs: ConfigSpace,
                     expertRanking: Vector[String],
                     policy: SubspacePolicy = SubspacePolicy.Adaptive,
                     seed: Long = 0L) {
  import Subspace._
  import SubspacePolicy._

  private val kMax: Int = cs.dim
  private var k: Int = policy match {
    case Adaptive     => KInit.min(kMax).max(KMin)
    case FixedSize(n) => n.min(kMax)
    case _            => kMax
  }
  private var succ = 0
  private var fail = 0
  private var pruned = false
  // Running importance scores, seeded from the expert prior (§4.1). Each
  // fANOVA refit is *blended* into the running scores rather than replacing
  // them — the paper averages importance across histories, which keeps the
  // ranking stable against the noise of a single small tuning history.
  private val scores: Array[Double] = {
    val s = new Array[Double](cs.dim)
    val prior = expertRanking.filter(cs.contains).map(cs.indexOf) ++
      (0 until cs.dim).filterNot(i =>
        expertRanking.exists(n => cs.contains(n) && cs.indexOf(n) == i))
    prior.zipWithIndex.foreach { case (dim, rank) => s(dim) = math.exp(-rank / 5.0) }
    s
  }
  private var ranking: Vector[Int] =
    scores.zipWithIndex.sortBy(-_._1).map(_._2).toVector
  private var sinceRefit = 0

  def size: Int = k

  /** Current free-dimension set Λ_sub = top-K ranked parameters (Eq. 5). */
  def freeDims: Set[Int] = ranking.take(k).toSet

  def currentRanking: Vector[Int] = ranking

  /** Record the outcome of a BO proposal: `improved` is whether it beat
    * the incumbent ("success"/"failure", §4.1). Only `Adaptive` resizes. */
  def observe(improved: Boolean): Unit = if (policy == Adaptive) {
    if (improved) { succ += 1; fail = 0 } else { fail += 1; succ = 0 }
    if (succ >= TauSucc) { k = (k + 2).min(kMax); succ = 0; fail = 0 }
    else if (fail >= TauFail) { k = (k - 2).max(KMin); succ = 0; fail = 0 }
  }

  /** Called after every run with the whole history: refreshes the ranking
    * when the policy asks for it ("once new tuning history arrives, we
    * continuously update the importance score"). */
  def maybeRefit(configs: Seq[Config], ys: Seq[Double], refitSeed: Long = 0L): Unit =
    policy match {
      case Full => ()
      case PrunedAfter(n, kPruned) =>
        if (!pruned && configs.size >= n) {
          pruned = true
          ranking = FAnova.importance(cs, configs, ys, nMc = 100, nGrid = 6, seed = seed).ranking
          k = kPruned.min(kMax)
        }
      case Adaptive | FixedSize(_) =>
        sinceRefit += 1
        if (configs.size >= MinHistory && sinceRefit >= RefitEvery) {
          sinceRefit = 0
          val res = FAnova.importance(cs, configs, ys, nMc = 120, nGrid = 6, seed = refitSeed)
          // Normalize the fANOVA scores to the running-score scale and blend.
          val mx = res.single.max
          if (mx > 1e-12) {
            var i = 0
            while (i < cs.dim) {
              scores(i) = 0.7 * scores(i) + 0.3 * (res.single(i) / mx)
              i += 1
            }
            ranking = scores.zipWithIndex.sortBy(-_._1).map(_._2).toVector
          }
        }
    }
}

object Subspace {
  private val KInit = 10
  private val KMin = 4
  private val TauSucc = 3
  private val TauFail = 5
  private val RefitEvery = 5
  private val MinHistory = 8
}

/** How the BO step chooses the dimensions its candidates vary (§4.1, and
  * the space-handling of the §6.3 BO baselines). */
sealed trait SubspacePolicy

object SubspacePolicy {
  /** The adaptive sub-space of §4.1: TuRBO sizing and blended fANOVA
    * refits. */
  case object Adaptive extends SubspacePolicy

  /** The top-`k` of the blended, periodically refit ranking; never resized
    * (the small fixed sub-space of the §6.5 ablation). */
  final case class FixedSize(k: Int) extends SubspacePolicy

  /** Every dimension free, no importance model (CherryPick). */
  case object Full extends SubspacePolicy

  /** Every dimension free until the history holds `n` runs; then one
    * fANOVA fit picks the top-`k` dimensions, fixed for the rest of the
    * session (Tuneful, LOCAT). */
  final case class PrunedAfter(n: Int, k: Int) extends SubspacePolicy
}
