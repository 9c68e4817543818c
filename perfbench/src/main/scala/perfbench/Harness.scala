package perfbench

import java.lang.management.ManagementFactory
import java.security.MessageDigest
import scala.jdk.CollectionConverters._

/** One reported figure: value and unit. */
final case class Metric(value: Double, unit: String)

/** Outcome of one batch of operations (a fleet, a round of sessions, or a
  * grid of cells). Every operation in a batch is checked; `failed` counts
  * the operations that threw, produced a non-finite metric, ran a config
  * outside the space, or came back with the wrong history length or count.
  */
final case class Batch(ops: Int, failed: Int, wallMs: Double,
                       opMs: Vector[Double], digest: String, quality: Quality)

/** Tuning quality of a batch, deterministic for a fixed seed.
  *
  * @param costReductionPct execution cost (T·R) saved by the tuned
  *                  configuration against the reference one, in percent,
  *                  mean over the batch's cost-objective operations
  * @param named     the workload's own figures under the names the paper
  *                  tables use (printed, not part of the JSON result)
  */
final case class Quality(costReductionPct: Double, named: Vector[(String, Double, String)])

object Stats {
  /** The q-quantile by linear interpolation between order statistics at
    * position q·(n+1) (the "exclusive" method), clamped to the sample range. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted.toVector
    require(s.nonEmpty, "no samples")
    if (s.size == 1) return s.head
    val pos = q * (s.size + 1) - 1.0
    if (pos <= 0) s.head
    else if (pos >= s.size - 1) s.last
    else {
      val lo = pos.floor.toInt
      s(lo) + (pos - lo) * (s(lo + 1) - s(lo))
    }
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else xs.sum / xs.size
}

/** Order-sensitive SHA-256 over numbers and strings; doubles are hashed by
  * their bit pattern, so two digests agree only on bit-identical results. */
final class Digest {
  private val md = MessageDigest.getInstance("SHA-256")
  private val buf = java.nio.ByteBuffer.allocate(8)

  def add(s: String): Digest = { md.update(s.getBytes("UTF-8")); md.update(0.toByte); this }
  def add(l: Long): Digest = { buf.clear(); buf.putLong(l); md.update(buf.array()); this }
  def add(d: Double): Digest = add(java.lang.Double.doubleToLongBits(d))
  def hex: String = md.digest().map(b => f"${b & 0xff}%02x").mkString
}

/** Wall-clock helpers. */
object Clock {
  def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** Run `f` and return its result with its wall time in ms. */
  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, ms(t0))
  }
}

/** Readings of the JVM taken from outside the program (MXBeans). */
object Jvm {
  def gcMs: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum.toDouble

  /** Peak used heap over all heap pools since JVM start, in MB. */
  def heapPeakMb: Double =
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == java.lang.management.MemoryType.HEAP)
      .map(_.getPeakUsage.getUsed).sum / (1024.0 * 1024.0)

  def startMs: Long = ManagementFactory.getRuntimeMXBean.getStartTime

  def version: String = System.getProperty("java.version")
}
