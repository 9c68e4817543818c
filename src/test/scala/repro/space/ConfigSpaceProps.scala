package repro.space

import org.scalacheck.{Gen, Prop, Properties}

/** ScalaCheck property suite for the unit-cube encoding — runs under
  * sbt's native ScalaCheck framework alongside the ScalaTest suites. */
object ConfigSpaceProps extends Properties("ConfigSpace") {
  private val cs = SparkParams.space()
  private val unitVec: Gen[Array[Double]] =
    Gen.containerOfN[Array, Double](cs.dim, Gen.choose(0.0, 1.0))

  property("fromUnit always yields clip-stable configs") = Prop.forAll(unitVec) { u =>
    val c = cs.fromUnit(u)
    cs.clip(c) == c
  }

  property("toUnit maps every dim into [0,1]") = Prop.forAll(unitVec) { u =>
    cs.toUnit(cs.fromUnit(u)).forall(v => v >= 0.0 && v <= 1.0)
  }

  property("encode/decode is idempotent after the first round trip") =
    Prop.forAll(unitVec) { u =>
      val c1 = cs.fromUnit(u)
      cs.fromUnit(cs.toUnit(c1)) == c1
    }

  property("perturbInSubspace at sigma=0, pCat=0 returns the config") =
    Prop.forAll(Gen.choose(0L, 1000L)) { seed =>
      val rng = new scala.util.Random(seed)
      val c = cs.sampleRandom(rng)
      cs.perturbInSubspace(c, (0 until cs.dim).toSet, rng, sigma = 0.0, pCat = 0.0) == c
    }
}
