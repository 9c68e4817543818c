package repro.surrogate

import org.scalatest.funsuite.AnyFunSuite
import repro.space.{CatParam, ConfigSpace, DoubleParam, SparkParams}

/** The mixed kernel's closed forms, each factor isolated on a tiny space:
  * a space with only numeric dims leaves the Matérn-5/2 factor, one with
  * only categorical dims the Hamming factor, and the data-size dim adds the
  * squared-exponential (SE) factor. */
class KernelsSpec extends AnyFunSuite {
  private val num1 = new ConfigSpace(Vector(DoubleParam("a", 0.0, 1.0)))
  private val num3 = new ConfigSpace(Vector(
    DoubleParam("a", 0.0, 1.0), DoubleParam("b", 0.0, 1.0), DoubleParam("c", 0.0, 1.0)))
  private val cat2 = new ConfigSpace(Vector(
    CatParam("p", Vector("x", "y", "z")), CatParam("q", Vector("x", "y", "z"))))
  private val mixed = new ConfigSpace(Vector(
    DoubleParam("a", 0.0, 1.0), CatParam("p", Vector("x", "y", "z"))))
  private val spark = SparkParams.space()

  private def kernel(cs: ConfigSpace, withDataSize: Boolean = false,
                     numLs: Double = 1.0, catLs: Double = 1.0, dsLs: Double = 1.0) =
    MixedKernel.forSpace(cs, withDataSize, numLs = numLs, catLs = catLs, dsLs = dsLs)

  private def matern(r: Double): Double =
    (1.0 + math.sqrt(5.0) * r + 5.0 * r * r / 3.0) * math.exp(-math.sqrt(5.0) * r)

  private def close(a: Double, b: Double): Boolean = math.abs(a - b) < 1e-12

  test("Matern52 at zero distance is 1") {
    val x = Array(0.3, 0.4, 0.5)
    assert(close(kernel(num3, numLs = 0.5)(x, x), 1.0))
  }

  test("Matern52 decays with distance and is symmetric") {
    val k = kernel(num1, numLs = 0.5)
    val a = Array(0.0); val b = Array(0.3); val c = Array(0.9)
    assert(k(a, b) > k(a, c))
    assert(k(a, b) == k(b, a))
    assert(k(a, c) > 0.0 && k(a, c) < 1.0)
  }

  test("Matern52 closed form at r = lengthscale") {
    // ‖x − y‖ = √(0.3² + 0.4²) = 0.5 = ℓ, so r = 1.
    val v = kernel(num3, numLs = 0.5)(Array(0.0, 0.0, 0.7), Array(0.3, 0.4, 0.7))
    assert(close(v, matern(1.0)))
  }

  test("Matern52 over empty dims is constant 1") {
    // No numeric dims: the Matérn factor is 1 whatever ℓ_num, leaving Hamming alone.
    val x = Array(cat2.choiceUnit(0, 1), cat2.choiceUnit(1, 2))
    val y = Array(cat2.choiceUnit(0, 0), cat2.choiceUnit(1, 2))
    assert(kernel(cat2, numLs = 1e-3)(x, y) == math.exp(-1.0))
  }

  test("SqExp matches exp(-d²/2ℓ²)") {
    // Same config, data sizes 0.5 apart: d = ℓ, so only exp(−1/2) remains.
    val k = kernel(num1, withDataSize = true, dsLs = 0.5)
    assert(close(k(Array(0.4, 0.0), Array(0.4, 0.5)), math.exp(-0.5)))
  }

  test("Hamming counts mismatching categorical dims") {
    val k = kernel(cat2, catLs = 2.0)
    def u(p: Int, q: Int) = Array(cat2.choiceUnit(0, p), cat2.choiceUnit(1, q))
    assert(k(u(0, 1), u(0, 1)) == 1.0)
    assert(close(k(u(0, 1), u(0, 2)), math.exp(-1.0 / 2.0)))
    assert(close(k(u(0, 1), u(2, 0)), math.exp(-2.0 / 2.0)))
  }

  test("MixedKernel multiplies its three factors") {
    val k = kernel(mixed, withDataSize = true, numLs = 0.25, catLs = 0.5, dsLs = 0.1)
    val x = Array(0.1, mixed.choiceUnit(1, 0), 0.3)
    val y = Array(0.35, mixed.choiceUnit(1, 2), 0.4)
    // r = 0.25 / 0.25 = 1; one mismatch; d = 0.1 / 0.1 = 1.
    assert(close(k(x, y), matern(1.0) * math.exp(-1.0 / 0.5) * math.exp(-0.5)))
  }

  test("forSpace builds a kernel with k(x,x)=1") {
    val x = spark.toUnit(SparkParams.defaults(spark))
    assert(close(kernel(spark, numLs = 0.5)(x, x), 1.0))
    assert(close(kernel(spark, withDataSize = true, numLs = 0.5, dsLs = 0.5)(x :+ 0.2, x :+ 0.2), 1.0))
  }

  test("forSpace with data size reacts to the trailing dim") {
    val k = kernel(spark, withDataSize = true, numLs = 0.5, dsLs = 0.5)
    val x = spark.toUnit(SparkParams.defaults(spark)) :+ 0.2
    val y = spark.toUnit(SparkParams.defaults(spark)) :+ 0.9
    assert(k(x, y) < k(x, x))
  }

  test("categorical change lowers the mixed kernel via Hamming") {
    val k = kernel(spark, numLs = 0.5)
    val c0 = SparkParams.defaults(spark)
    val c1 = spark.withValue(c0, SparkParams.IoCodec, 2.0)
    assert(k(spark.toUnit(c0), spark.toUnit(c1)) < 1.0)
  }
}
