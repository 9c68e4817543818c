package repro.surrogate

import repro.linalg.Lin
import repro.space.ConfigSpace

/** Posterior prediction of a surrogate at one point. */
final case class Pred(mean: Double, variance: Double) {
  def sigma: Double = math.sqrt(variance.max(1e-12))
}

/** A trained surrogate model: configurations (already unit-encoded,
  * possibly with a trailing data-size dim) → predictive Gaussian.
  */
trait Surrogate extends Serializable {
  def predict(x: Array[Double]): Pred
}

/** Gaussian-process regression surrogate (Eq. 2) with fixed-form mixed
  * kernels (Eq. 4) and white-noise level τ².
  *
  * Targets are standardized internally; predictions are de-standardized.
  * Fitting selects the kernel lengthscale scale from a small candidate
  * grid by marginal likelihood — the paper's motivation for GPs is that
  * they are effectively hyperparameter-free, which this preserves.
  */
final class Gp private (kernel: Kernel,
                        xs: Array[Array[Double]],
                        alpha: Array[Double],
                        chol: Array[Array[Double]],
                        yMean: Double, yStd: Double,
                        noise: Double) extends Surrogate {

  /** Predictive mean and variance at `x` (Eq. 2), on the original scale. */
  def predict(x: Array[Double]): Pred = {
    val n = xs.length
    val kv = new Array[Double](n)
    var i = 0
    while (i < n) { kv(i) = kernel(xs(i), x); i += 1 }
    val muStd = Lin.dot(kv, alpha)
    val v = Lin.solveLower(chol, kv)
    val varStd = (kernel(x, x) + noise - Lin.dot(v, v)).max(1e-12)
    Pred(yMean + yStd * muStd, varStd * yStd * yStd)
  }

  def n: Int = xs.length
}

object Gp {
  /** Candidate lengthscale multipliers ℓ. */
  private val LsGrid = Seq(0.5, 1.0, 2.0)

  /** The tuner's surrogate, fitted on unit-encoded configs `xs` (with a
    * trailing data-size dim if `withDataSize`): the mixed kernel of Eq. 4
    * with lengthscales 0.5·ℓ (numeric), ℓ (categorical) and 0.5·ℓ (data
    * size), and noise level 1e-3. Every GP of the tuner and of the
    * knowledge base is fitted here. */
  def fitMixed(cs: ConfigSpace, withDataSize: Boolean,
               xs: Array[Array[Double]], ys: Array[Double]): Gp =
    fit(xs, ys, ls => MixedKernel.forSpace(cs, withDataSize,
      numLs = 0.5 * ls, catLs = ls, dsLs = 0.5 * ls), noise = 1e-3)

  /** Fit a GP on raw (unit-encoded) inputs and targets.
    *
    * @param kernelOf builds a kernel given a lengthscale multiplier; the
    *                 multiplier is selected from `LsGrid` by marginal
    *                 log-likelihood.
    */
  def fit(xs: Array[Array[Double]], ys: Array[Double],
          kernelOf: Double => Kernel, noise: Double): Gp = {
    require(xs.nonEmpty && xs.length == ys.length, "empty or mismatched training data")
    val n = xs.length
    val yMean = ys.sum / n
    val yStd = {
      val v = ys.map(y => (y - yMean) * (y - yMean)).sum / n
      math.sqrt(v).max(1e-8)
    }
    val yStdz = ys.map(y => (y - yMean) / yStd)

    var best: Gp = null
    var bestMll = Double.NegativeInfinity
    for (ls <- LsGrid) {
      val k = kernelOf(ls)
      val gram = Array.tabulate(n, n)((i, j) => k(xs(i), xs(j)) + (if (i == j) noise else 0.0))
      val (l, _) = Lin.cholesky(gram)
      val a = Lin.choleskySolve(l, yStdz)
      val mll = -0.5 * Lin.dot(yStdz, a) - 0.5 * Lin.logDet(l) - 0.5 * n * math.log(2 * math.Pi)
      if (mll > bestMll) {
        bestMll = mll
        best = new Gp(k, xs, a, l, yMean, yStd, noise)
      }
    }
    best
  }
}

/** Meta-learning ensemble surrogate (Eq. 12): a similarity-weighted sum of
  * base surrogates from previous tasks plus the current-task surrogate.
  *
  *   μ_meta(x) = Σ wᵢ μᵢ(x),   σ²_meta(x) = Σ wᵢ² σᵢ²(x),  Σ wᵢ = 1.
  */
final class MetaEnsemble(bases: Vector[Surrogate], weights: Vector[Double]) extends Surrogate {
  require(bases.nonEmpty && bases.size == weights.size, "bases/weights mismatch")
  private val w: Vector[Double] = {
    val s = weights.map(_.max(0.0))
    val tot = s.sum
    if (tot <= 0) Vector.fill(s.size)(1.0 / s.size) else s.map(_ / tot)
  }

  def normalizedWeights: Vector[Double] = w

  def predict(x: Array[Double]): Pred = {
    var mu = 0.0
    var va = 0.0
    var i = 0
    while (i < bases.size) {
      val p = bases(i).predict(x)
      mu += w(i) * p.mean
      va += w(i) * w(i) * p.variance
      i += 1
    }
    Pred(mu, va.max(1e-12))
  }
}
