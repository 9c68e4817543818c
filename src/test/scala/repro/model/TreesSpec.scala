package repro.model

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite

class TreesSpec extends AnyFunSuite {
  private val r = new Random(7)

  private def step(x: Array[Double]): Double = if (x(0) <= 0.5) 1.0 else 5.0

  test("tree fits a constant exactly") {
    val xs = Array.fill(20)(Array(r.nextDouble()))
    val t = RegressionTree.fit(xs, Array.fill(20)(3.0))
    assert(t.predict(Array(0.1)) == 3.0)
  }

  test("tree learns a step function") {
    val xs = Array.tabulate(100)(i => Array(i / 100.0))
    val ys = xs.map(step)
    val t = RegressionTree.fit(xs, ys, maxDepth = 3, minLeaf = 2)
    assert(math.abs(t.predict(Array(0.2)) - 1.0) < 1e-9)
    assert(math.abs(t.predict(Array(0.9)) - 5.0) < 1e-9)
  }

  test("tree respects maxDepth 0 (single leaf = mean)") {
    val xs = Array(Array(0.0), Array(1.0))
    val t = RegressionTree.fit(xs, Array(0.0, 10.0), maxDepth = 0)
    assert(t.isLeaf && t.predict(Array(0.0)) == 5.0)
  }

  test("tree splits on the informative feature among noise features") {
    val xs = Array.fill(200)(Array(r.nextDouble(), r.nextDouble(), r.nextDouble()))
    val ys = xs.map(x => if (x(1) <= 0.5) 0.0 else 1.0)
    val t = RegressionTree.fit(xs, ys, maxDepth = 2)
    assert(t.feature == 1)
    assert(math.abs(t.threshold - 0.5) < 0.1)
  }

  test("fit rejects empty training set") {
    assertThrows[IllegalArgumentException](
      RegressionTree.fit(Array.empty, Array.empty))
  }

  test("random forest beats the global mean on a nonlinear target") {
    val xs = Array.fill(300)(Array(r.nextDouble(), r.nextDouble()))
    val ys = xs.map(x => math.sin(5 * x(0)) + x(1) * x(1))
    val rf = RandomForest.fit(xs, ys, nTrees = 24, seed = 1)
    val mean = ys.sum / ys.length
    val mseRf = xs.zip(ys).map { case (x, y) => math.pow(rf.predict(x) - y, 2) }.sum
    val mseMean = ys.map(y => math.pow(y - mean, 2)).sum
    assert(mseRf < mseMean * 0.5)
  }

  test("random forest is deterministic in its seed") {
    val xs = Array.fill(50)(Array(r.nextDouble()))
    val ys = xs.map(_(0))
    val a = RandomForest.fit(xs, ys, nTrees = 8, seed = 3)
    val b = RandomForest.fit(xs, ys, nTrees = 8, seed = 3)
    assert(a.predict(Array(0.37)) == b.predict(Array(0.37)))
  }

  test("gbdt fits a nonlinear function closely") {
    val xs = Array.tabulate(200)(i => Array(i / 200.0))
    val ys = xs.map(x => math.sin(6 * x(0)))
    val g = Gbdt.fit(xs, ys, nTrees = 100, maxDepth = 3)
    val mse = xs.zip(ys).map { case (x, y) => math.pow(g.predict(x) - y, 2) }.sum / xs.length
    assert(mse < 0.01)
  }

  test("gbdt with zero trees predicts the base mean") {
    val xs = Array(Array(0.0), Array(1.0))
    val g = Gbdt.fit(xs, Array(2.0, 4.0), nTrees = 0)
    assert(g.predict(Array(0.5)) == 3.0)
  }

  test("gbdt shrinkage: more trees reduce training error") {
    val xs = Array.tabulate(100)(i => Array(i / 100.0))
    val ys = xs.map(x => x(0) * x(0))
    def mse(n: Int) = {
      val g = Gbdt.fit(xs, ys, nTrees = n, maxDepth = 2)
      xs.zip(ys).map { case (x, y) => math.pow(g.predict(x) - y, 2) }.sum
    }
    assert(mse(50) < mse(5))
  }
}
