package repro.surrogate

import repro.space.ConfigSpace

/** Covariance function over unit-cube-encoded configuration vectors. */
trait Kernel extends Serializable {
  def apply(x: Array[Double], y: Array[Double]): Double
}

/** The paper's mixed kernel (§3.3, Eq. 4), the product of
  *
  *  - Matérn-5/2 over the numeric dims with a shared lengthscale:
  *    (1 + √5·r + 5r²/3)·exp(−√5·r), r = ‖x − y‖/ℓ_num;
  *  - Hamming over the categorical dims: exp(−m/ℓ_cat) for m mismatching
  *    dims. Each category has one unit encoding (`ConfigSpace.toUnit`), so
  *    equal values mean equal categories;
  *  - squared-exponential over the data-size dim, if any (§3.3 Dynamic
  *    Workload Support): exp(−d²/2ℓ_ds²).
  */
final class MixedKernel private (numDims: Array[Int], catDims: Array[Int], dsDim: Option[Int],
                                 numLs: Double, catLs: Double, dsLs: Double) extends Kernel {
  require(numLs > 0 && catLs > 0 && dsLs > 0)

  def apply(x: Array[Double], y: Array[Double]): Double = {
    var s = 0.0 // squared scaled distance over the numeric dims
    var i = 0
    while (i < numDims.length) {
      val d = (x(numDims(i)) - y(numDims(i))) / numLs
      s += d * d
      i += 1
    }
    var mis = 0
    i = 0
    while (i < catDims.length) {
      if (x(catDims(i)) != y(catDims(i))) mis += 1
      i += 1
    }
    val a = math.sqrt(5.0) * math.sqrt(s)
    val k = (1.0 + a + (5.0 / 3.0) * s) * math.exp(-a) * math.exp(-mis / catLs)
    dsDim match {
      case Some(j) => val d = (x(j) - y(j)) / dsLs; k * math.exp(-0.5 * (d * d))
      case None    => k
    }
  }
}

object MixedKernel {
  /** Mixed kernel for a config space, with an optional trailing data-size
    * dimension appended after the config dims (index = cs.dim).
    *
    * @param numLs  Matérn lengthscale on numeric dims
    * @param catLs  Hamming lengthscale on categorical dims
    * @param dsLs   SE lengthscale on the data-size dim
    */
  def forSpace(cs: ConfigSpace, withDataSize: Boolean,
               numLs: Double, catLs: Double, dsLs: Double): MixedKernel =
    new MixedKernel((0 until cs.dim).filterNot(cs.isCat).toArray,
      (0 until cs.dim).filter(cs.isCat).toArray,
      if (withDataSize) Some(cs.dim) else None, numLs, catLs, dsLs)
}
