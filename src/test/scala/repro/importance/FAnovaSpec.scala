package repro.importance

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.space.{ConfigSpace, DoubleParam, CatParam, Config}

class FAnovaSpec extends AnyFunSuite {
  private val cs = new ConfigSpace(Vector(
    DoubleParam("a", 0.0, 1.0), DoubleParam("b", 0.0, 1.0),
    DoubleParam("c", 0.0, 1.0), CatParam("d", Vector("x", "y")),
    CatParam("e", Vector("x", "y", "z"))))

  private def history(f: Config => Double, n: Int = 150, seed: Int = 1) = {
    val r = new Random(seed)
    val configs = Vector.fill(n)(cs.sampleRandom(r))
    (configs, configs.map(f))
  }

  test("dominant parameter gets the highest importance") {
    val (xs, ys) = history(c => 10.0 * c(0) + 0.5 * c(1))
    val res = FAnova.importance(cs, xs, ys, nMc = 150, seed = 2)
    assert(res.ranking.head == 0)
    assert(res.single(0) > res.single(1))
    assert(res.single(0) > 0.5)
  }

  test("irrelevant parameters get near-zero importance") {
    val (xs, ys) = history(c => 5.0 * c(0))
    val res = FAnova.importance(cs, xs, ys, nMc = 150, seed = 3)
    assert(res.single(2) < 0.1)
    assert(res.single(3) < 0.1)
  }

  test("categorical effect is detected") {
    val (xs, ys) = history(c => if (c(3) < 0.5) 0.0 else 4.0)
    val res = FAnova.importance(cs, xs, ys, nMc = 150, seed = 4)
    assert(res.ranking.head == 3)
    // An effect only on the third choice of a 3-choice categorical.
    val (xs3, ys3) = history(c => if (c(4) == 2.0) 4.0 else 0.0)
    val res3 = FAnova.importance(cs, xs3, ys3, nMc = 150, seed = 4)
    assert(res3.ranking.head == 4, s"importances ${res3.single}")
  }

  test("constant objective yields all-zero importances") {
    val (xs, _) = history(_ => 1.0)
    val res = FAnova.importance(cs, xs, Vector.fill(xs.size)(1.0), seed = 5)
    assert(res.single.forall(_ == 0.0))
  }

  test("importance rejects empty history") {
    assertThrows[IllegalArgumentException](
      FAnova.importance(cs, Vector.empty, Vector.empty))
  }

  test("aggregate computes per-parameter mean and std") {
    val r1 = FAnova.Result(Vector(0.4, 0.2, 0.0, 0.0))
    val r2 = FAnova.Result(Vector(0.2, 0.4, 0.0, 0.0))
    val agg = FAnova.aggregate(Seq(r1, r2))
    assert(math.abs(agg(0)._1 - 0.3) < 1e-12)
    assert(math.abs(agg(0)._2 - 0.1) < 1e-12)
    assert(agg(2)._1 == 0.0 && agg(2)._2 == 0.0)
  }

  test("ranking sorts descending by importance") {
    val res = FAnova.Result(Vector(0.1, 0.5, 0.3, 0.0))
    assert(res.ranking == Vector(1, 2, 0, 3))
  }
}
