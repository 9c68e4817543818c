package repro.space

import scala.util.Random

/** A single tunable parameter in the Spark configuration space. */
sealed trait Param extends Serializable {
  /** Fully qualified Spark parameter name, e.g. `spark.executor.memory`. */
  def name: String
}

/** Integer-valued parameter on [lo, hi]; `log=true` searches in log scale. */
final case class IntParam(name: String, lo: Long, hi: Long, log: Boolean = false) extends Param {
  require(lo < hi, s"$name: empty range")
}

/** Real-valued parameter on [lo, hi]; `log=true` searches in log scale. */
final case class DoubleParam(name: String, lo: Double, hi: Double, log: Boolean = false) extends Param {
  require(lo < hi, s"$name: empty range")
}

/** Categorical parameter over a fixed set of choices (booleans included). */
final case class CatParam(name: String, choices: Vector[String]) extends Param {
  require(choices.nonEmpty, s"$name: no choices")
}

/** A concrete configuration: one raw value per parameter, in space order.
  *
  * Numeric parameters store their actual value; categorical parameters
  * store the choice index as a Double. Configurations are plain value
  * objects — all semantics (encoding, clipping, lookup) live in
  * [[ConfigSpace]].
  */
final case class Config(values: Vector[Double]) {
  def apply(i: Int): Double = values(i)
  def updated(i: Int, v: Double): Config = Config(values.updated(i, v))
}

/** The Cartesian search space Λ = Λ¹ × … × Λᴺ over Spark parameters.
  *
  * Owns the unit-cube encoding read by every model (GP kernel, forests,
  * fANOVA, task distance): numeric dimensions map to [0,1] (optionally
  * log-scaled); choice `i` of a categorical with `n` choices maps to the
  * centre `(i + 0.5) / n` of the `i`-th of `n` equal cells, and any unit
  * value decodes to the cell it falls in. No other module reads category
  * indices out of an encoded vector.
  */
final class ConfigSpace(val params: Vector[Param]) extends Serializable {
  val dim: Int = params.size
  private val index: Map[String, Int] = params.map(_.name).zipWithIndex.toMap

  /** Index of a parameter by its Spark name; throws if absent. */
  def indexOf(name: String): Int =
    index.getOrElse(name, throw new NoSuchElementException(s"unknown parameter: $name"))

  def contains(name: String): Boolean = index.contains(name)

  /** True if dimension `i` is categorical (Hamming-kernel dimension). */
  def isCat(i: Int): Boolean = params(i).isInstanceOf[CatParam]

  /** Number of categories of categorical dim `i` (1 for numeric dims). */
  def cardinality(i: Int): Int = params(i) match {
    case CatParam(_, cs) => cs.size
    case _               => 1
  }

  /** Raw value of `name` in `c`. */
  def value(c: Config, name: String): Double = c(indexOf(name))

  /** Categorical choice string of `name` in `c`. */
  def choice(c: Config, name: String): String = params(indexOf(name)) match {
    case CatParam(_, cs) => cs(c(indexOf(name)).toInt.min(cs.size - 1).max(0))
    case p               => throw new IllegalArgumentException(s"${p.name} is not categorical")
  }

  /** Copy of `c` with `name` set to raw value `v` (clipped to its range). */
  def withValue(c: Config, name: String, v: Double): Config = {
    val i = indexOf(name)
    c.updated(i, clipDim(i, v))
  }

  private def clipDim(i: Int, v: Double): Double = params(i) match {
    case IntParam(_, lo, hi, _)    => math.rint(v).max(lo.toDouble).min(hi.toDouble)
    case DoubleParam(_, lo, hi, _) => v.max(lo).min(hi)
    case CatParam(_, cs)           => math.rint(v).max(0).min((cs.size - 1).toDouble)
  }

  /** Clip every dimension of `c` into its legal range (ints snapped). */
  def clip(c: Config): Config =
    Config(Vector.tabulate(dim)(i => clipDim(i, c(i))))

  /** Unit encoding of choice `k` of categorical dim `i`: its cell centre. */
  def choiceUnit(i: Int, k: Int): Double = (k + 0.5) / cardinality(i)

  /** Encode to the unit cube: numeric → [0,1] (log-aware), cat → cell centre. */
  def toUnit(c: Config): Array[Double] = {
    val out = new Array[Double](dim)
    var i = 0
    while (i < dim) {
      out(i) = params(i) match {
        case IntParam(_, lo, hi, log)    => unitOf(c(i), lo.toDouble, hi.toDouble, log)
        case DoubleParam(_, lo, hi, log) => unitOf(c(i), lo, hi, log)
        case CatParam(_, _)              => choiceUnit(i, c(i).toInt)
      }
      i += 1
    }
    out
  }

  /** Decode a unit-cube point back to a legal raw configuration. */
  def fromUnit(u: Array[Double]): Config = {
    require(u.length == dim, s"expected $dim dims, got ${u.length}")
    Config(Vector.tabulate(dim) { i =>
      params(i) match {
        case IntParam(_, lo, hi, log) =>
          math.rint(rawOf(u(i), lo.toDouble, hi.toDouble, log)).max(lo.toDouble).min(hi.toDouble)
        case DoubleParam(_, lo, hi, log) =>
          rawOf(u(i), lo, hi, log).max(lo).min(hi)
        case CatParam(_, cs) =>
          math.floor(u(i) * cs.size).max(0).min((cs.size - 1).toDouble)
      }
    })
  }

  private def unitOf(v: Double, lo: Double, hi: Double, log: Boolean): Double =
    if (log) (math.log(v.max(lo)) - math.log(lo)) / (math.log(hi) - math.log(lo))
    else ((v - lo) / (hi - lo)).max(0.0).min(1.0)

  private def rawOf(u: Double, lo: Double, hi: Double, log: Boolean): Double = {
    val uc = u.max(0.0).min(1.0)
    if (log) math.exp(math.log(lo) + uc * (math.log(hi) - math.log(lo)))
    else lo + uc * (hi - lo)
  }

  /** Uniform random configuration. */
  def sampleRandom(rng: Random): Config =
    fromUnit(Array.fill(dim)(rng.nextDouble()))

  /** `n` uniform random configurations. */
  def sampleRandom(rng: Random, n: Int): Vector[Config] =
    Vector.fill(n)(sampleRandom(rng))

  /** `n` low-discrepancy configurations (§3.3 initial design). */
  def sampleLowDiscrepancy(n: Int, seed: Long = 0L): Vector[Config] =
    LowDiscrepancy.halton(n, dim, seed).map(fromUnit)

  /** Perturb only the dims in `free`, pinning the rest to `anchor` —
    * TuRBO-style local exploration inside the sub-space. Numeric dims take
    * a Gaussian step of `sigma` in unit space; categorical dims resample
    * with probability `pCat`. */
  def perturbInSubspace(anchor: Config, free: Set[Int], rng: Random,
                        sigma: Double = 0.2, pCat: Double = 0.25): Config = {
    val out = toUnit(anchor)
    free.foreach { i =>
      out(i) = params(i) match {
        case CatParam(_, cs) =>
          if (rng.nextDouble() < pCat) choiceUnit(i, rng.nextInt(cs.size)) else out(i)
        case _ => (out(i) + rng.nextGaussian() * sigma).max(0.0).min(1.0)
      }
    }
    fromUnit(out)
  }

  /** Restrict sampling to a sub-space: dims in `free` vary, the rest are
    * pinned to `anchor`'s values (Eq. 5 sub-space with an anchor point). */
  def sampleInSubspace(anchor: Config, free: Set[Int], rng: Random): Config = {
    val out = toUnit(anchor)
    free.foreach { i =>
      out(i) = params(i) match {
        case CatParam(_, cs) => choiceUnit(i, rng.nextInt(cs.size))
        case _               => rng.nextDouble()
      }
    }
    fromUnit(out)
  }
}

/** Low-discrepancy sequence generator (Halton; stands in for Sobol [67]). */
object LowDiscrepancy {
  private val Primes: Vector[Int] = {
    var acc = Vector.empty[Int]
    var n = 2
    while (acc.size < 64) { if ((2 until n).forall(n % _ != 0)) acc :+= n; n += 1 }
    acc
  }

  /** van der Corput radical inverse of `i` in base `b`. */
  def radicalInverse(i: Long, b: Int): Double = {
    var f = 1.0; var r = 0.0; var k = i
    while (k > 0) { f /= b; r += f * (k % b); k /= b }
    r
  }

  /** `n` points of a `dim`-dimensional scrambled Halton sequence. */
  def halton(n: Int, dim: Int, seed: Long = 0L): Vector[Array[Double]] = {
    require(dim <= Primes.size, s"dim $dim exceeds ${Primes.size} supported dims")
    val rng = new Random(seed)
    val shift = Array.fill(dim)(rng.nextDouble())
    Vector.tabulate(n) { i =>
      Array.tabulate(dim) { d =>
        val v = radicalInverse(i.toLong + 1, Primes(d)) + shift(d)
        v - math.floor(v)
      }
    }
  }
}
