package repro.importance

import scala.util.Random
import repro.model.RandomForest
import repro.space.ConfigSpace

/** Functional ANOVA parameter importance (§4.1, after Hutter et al. [35]).
  *
  * A random forest is fit on the tuning history (unit-encoded configs →
  * objective); importance of parameter i is the fraction of total predictive
  * variance explained by its marginal:
  *
  *   V_i = Var_v( E_x[ f(x | x_i = v) ] ),   imp_i = V_i / V_total.
  *
  * Marginals are estimated by Monte-Carlo marginalization (grid over the
  * parameter × MC background samples) rather than exact tree marginals;
  * at ≤30 dims and small histories this is accurate and linear-time. A
  * categorical's grid is its choices' unit encodings; a uniform background
  * draw falls in each choice's cell with equal probability.
  */
object FAnova {

  final case class Result(single: Vector[Double]) {
    /** Parameter indices ranked by single importance, descending. */
    def ranking: Vector[Int] = single.zipWithIndex.sortBy(-_._1).map(_._2)
  }

  private def gridFor(cs: ConfigSpace, i: Int, nGrid: Int): Array[Double] =
    if (cs.isCat(i)) Array.tabulate(cs.cardinality(i))(cs.choiceUnit(i, _))
    else Array.tabulate(nGrid)(g => (g + 0.5) / nGrid)

  /** Compute importances from history (configs, objective values).
    *
    * @param nMc    background Monte-Carlo samples
    * @param nGrid  grid resolution per numeric parameter
    */
  def importance(cs: ConfigSpace,
                 configs: Seq[repro.space.Config], ys: Seq[Double],
                 nMc: Int = 200, nGrid: Int = 8,
                 seed: Long = 0L): Result = {
    require(configs.size == ys.size && configs.nonEmpty, "empty history")
    val xs = configs.map(cs.toUnit).toArray
    val rf = RandomForest.fit(xs, ys.toArray, nTrees = 24, seed = seed)
    val rng = new Random(seed)
    val bg = Array.fill(nMc)(Array.fill(cs.dim)(rng.nextDouble()))

    val preds = bg.map(rf.predict)
    val mu = preds.sum / preds.length
    val totalVar = preds.map(p => (p - mu) * (p - mu)).sum / preds.length
    if (totalVar <= 1e-12)
      return Result(Vector.fill(cs.dim)(0.0))

    def marginalMean(d: Int, v: Double): Double = {
      var s = 0.0
      var b = 0
      while (b < bg.length) {
        val x = bg(b).clone()
        x(d) = v
        s += rf.predict(x)
        b += 1
      }
      s / bg.length
    }

    val singleVar = Vector.tabulate(cs.dim) { i =>
      val grid = gridFor(cs, i, nGrid)
      val ms = grid.map(v => marginalMean(i, v))
      val m = ms.sum / ms.length
      ms.map(x => (x - m) * (x - m)).sum / ms.length
    }
    Result(singleVar.map(_ / totalVar))
  }

  /** Average single-importance scores across tasks (§4.1: "obtain the final
    * importance scores by averaging the scores from those tasks"); returns
    * per-parameter (mean, std). */
  def aggregate(results: Seq[Result]): Vector[(Double, Double)] = {
    require(results.nonEmpty, "no results")
    val dim = results.head.single.size
    Vector.tabulate(dim) { i =>
      val vs = results.map(_.single(i))
      val m = vs.sum / vs.size
      val sd = math.sqrt(vs.map(v => (v - m) * (v - m)).sum / vs.size)
      (m, sd)
    }
  }
}
