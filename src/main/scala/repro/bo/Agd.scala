package repro.bo

import repro.space.{Config, ConfigSpace}
import repro.surrogate.Surrogate

/** Approximate Gradient Descent (§4.3, Eq. 9–11).
  *
  * Every N_AGD BO iterations the next configuration is produced by one
  * gradient step from the incumbent:
  *
  *   ∂f/∂xⁱ = β (T/R)^(β−1) ∂T/∂xⁱ + (1−β)(T/R)^β ∂R/∂xⁱ
  *
  * ∂T/∂xⁱ comes from central differences of the *runtime surrogate*
  * (Eq. 10) — no extra job executions; ∂R/∂xⁱ from central differences of
  * the white-box resource function (exact for the linear R).
  *
  * Differences and updates are taken in the unit cube so one learning rate
  * serves parameters of wildly different raw scales; steps are clipped to
  * `MaxStep` per dimension to keep single AGD moves sane. Categorical
  * dimensions are left untouched (the paper differentiates numerical
  * parameters only).
  */
final class Agd(cs: ConfigSpace, beta: Double, resourceOf: Config => Double) {
  import Agd.{Eps, Eta, MaxStep}

  /** One AGD step from `best`.
    *
    * @param runtimeSurrogate surrogate over unit vectors (config dims
    *                         possibly followed by a data-size dim)
    * @param extra            values of trailing non-config dims (data size)
    */
  def step(best: Config, runtimeSurrogate: Surrogate, extra: Array[Double]): Config = {
    val u = cs.toUnit(best)
    def pad(v: Array[Double]): Array[Double] = if (extra.isEmpty) v else v ++ extra

    def tAt(v: Array[Double]): Double = runtimeSurrogate.predict(pad(v)).mean.max(1e-6)
    def rAt(v: Array[Double]): Double = resourceOf(cs.fromUnit(v)).max(1e-6)

    val t0 = tAt(u)
    val r0 = rAt(u)
    val ratio = t0 / r0

    val out = u.clone()
    var i = 0
    while (i < cs.dim) {
      if (!cs.isCat(i)) {
        val up = u.clone(); up(i) = (u(i) + Eps).min(1.0)
        val dn = u.clone(); dn(i) = (u(i) - Eps).max(0.0)
        val h = (up(i) - dn(i)).max(1e-9)
        val dT = (tAt(up) - tAt(dn)) / h           // Eq. 10
        val dR = (rAt(up) - rAt(dn)) / h
        val grad = beta * math.pow(ratio, beta - 1.0) * dT +
          (1.0 - beta) * math.pow(ratio, beta) * dR // Eq. 9
        val stepRaw = Eta * grad                    // Eq. 11
        val step = math.signum(stepRaw) * math.min(math.abs(stepRaw), MaxStep)
        out(i) = (u(i) - step).max(0.0).min(1.0)
      }
      i += 1
    }
    cs.fromUnit(out)
  }
}

object Agd {
  /** Learning rate η (§4.3), central-difference half-width and per-dim
    * step clip, all in unit space. */
  private val Eta = 0.001
  private val Eps = 0.05
  private val MaxStep = 0.05
}
