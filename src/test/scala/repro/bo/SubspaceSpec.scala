package repro.bo

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.space.SparkParams

class SubspaceSpec extends AnyFunSuite {
  private val cs = SparkParams.space()

  private def fresh = new Subspace(cs, SparkParams.ExpertRanking)

  test("initial size is K_init = 10") { assert(fresh.size == 10) }

  test("free dims are the top-K of the expert ranking initially") {
    val s = fresh
    val expected = SparkParams.ExpertRanking.take(10).map(cs.indexOf).toSet
    assert(s.freeDims == expected)
  }

  test("three consecutive successes grow the sub-space by 2 (τ_succ=3)") {
    val s = fresh
    (1 to 3).foreach(_ => s.observe(improved = true))
    assert(s.size == 12)
  }

  test("five consecutive failures shrink the sub-space by 2 (τ_fail=5)") {
    val s = fresh
    (1 to 5).foreach(_ => s.observe(improved = false))
    assert(s.size == 8)
  }

  test("interleaved outcomes reset the streak counters") {
    val s = fresh
    s.observe(true); s.observe(true); s.observe(false)
    s.observe(true); s.observe(true); s.observe(false)
    assert(s.size == 10) // never 3 in a row
  }

  test("size never exceeds K_max = dim") {
    val s = fresh
    (1 to 60).foreach(_ => s.observe(improved = true))
    assert(s.size == cs.dim)
  }

  test("size never drops below K_min = 4") {
    val s = fresh
    (1 to 100).foreach(_ => s.observe(improved = false))
    assert(s.size == 4)
  }

  test("counters reset after a resize (growth needs a fresh streak)") {
    val s = fresh
    (1 to 3).foreach(_ => s.observe(true)) // -> 12, counters reset
    s.observe(true); s.observe(true)
    assert(s.size == 12) // only 2 successes since resize
    s.observe(true)
    assert(s.size == 14)
  }

  /** 40 random configs whose objective depends only on executor.memory. */
  private val iMem = cs.indexOf(SparkParams.ExecMemory)
  private val memHistory = {
    val rng = new Random(3)
    val configs = Vector.fill(40)(cs.sampleRandom(rng))
    (configs, configs.map(c => cs.toUnit(c)(iMem) * 10.0))
  }

  test("maybeRefit replaces the ranking from history via fANOVA") {
    val s = fresh
    val (configs, ys) = memHistory
    val before = s.currentRanking
    (1 to 4).foreach(_ => s.maybeRefit(configs, ys, 1))
    assert(s.currentRanking == before)
    s.maybeRefit(configs, ys, 1)
    assert(s.currentRanking.head == iMem)
  }

  test("maybeRefit is a no-op below the history threshold") {
    val s = fresh
    val (configs, ys) = memHistory
    val before = s.currentRanking
    (1 to 10).foreach(_ => s.maybeRefit(configs.take(7), ys.take(7), 1))
    assert(s.currentRanking == before)
  }

  test("FixedSize keeps K while the ranking refits; Full frees every dim") {
    val fixed = new Subspace(cs, SparkParams.ExpertRanking, SubspacePolicy.FixedSize(6))
    val full = new Subspace(cs, SparkParams.ExpertRanking, SubspacePolicy.Full)
    val (configs, ys) = memHistory
    (1 to 20).foreach { i =>
      Seq(fixed, full).foreach { s => s.observe(i % 7 != 0); s.maybeRefit(configs, ys, i) }
    }
    assert(fixed.size == 6 && fixed.currentRanking.head == iMem)
    assert(full.freeDims == (0 until cs.dim).toSet)
  }

  test("PrunedAfter frees every dim until n runs, then fixes the fANOVA top-k") {
    val s = new Subspace(cs, SparkParams.ExpertRanking, SubspacePolicy.PrunedAfter(10, 8), seed = 1)
    val (configs, ys) = memHistory
    s.maybeRefit(configs.take(9), ys.take(9))
    assert(s.freeDims == (0 until cs.dim).toSet)
    s.maybeRefit(configs.take(10), ys.take(10))
    val pruned = s.freeDims
    assert(pruned.size == 8)
    (1 to 10).foreach { _ => s.observe(improved = true); s.maybeRefit(configs, ys) }
    assert(s.freeDims == pruned)
  }
}
