package repro.workload

import scala.collection.mutable.ArrayBuffer
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.meta.MetaFeatures

/** Extracts the paper's 75 task meta-features (11 stage-level + 64
  * task-level, §5.1 after [60]) from *real* Spark executions.
  *
  * The paper parses the SparkEventLog file; locally we attach a
  * SparkListener for the duration of the workload — the listener receives
  * exactly the events the log would contain.
  *
  * Only the length and 11/64 split match `MetaFeatures.fromSpec`: slot 1
  * is max stage tasks/512 (iterations/16 there) and the task slots are
  * metric-major (expansion-major there). The two are never mixed.
  */
final class MetricsListener extends SparkListener {
  final case class TaskRow(durationMs: Double, cpuRatio: Double, gcRatio: Double,
                           shuffleReadB: Double, shuffleWriteB: Double,
                           inputB: Double, spilledB: Double, resultB: Double)

  val tasks = new ArrayBuffer[TaskRow]
  var nStages = 0
  var shuffleStages = 0
  var inputStages = 0
  var totalShuffleWrite = 0L
  var totalShuffleRead = 0L
  var totalInput = 0L
  var maxStageTasks = 0

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) {
      val dur = math.max(1.0, e.taskInfo.duration.toDouble)
      tasks += TaskRow(
        durationMs = dur,
        cpuRatio = (m.executorCpuTime / 1e6) / dur,
        gcRatio = m.jvmGCTime.toDouble / dur,
        shuffleReadB = m.shuffleReadMetrics.totalBytesRead.toDouble,
        shuffleWriteB = m.shuffleWriteMetrics.bytesWritten.toDouble,
        inputB = m.inputMetrics.bytesRead.toDouble,
        spilledB = (m.memoryBytesSpilled + m.diskBytesSpilled).toDouble,
        resultB = m.resultSize.toDouble)
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val si = e.stageInfo
    nStages += 1
    maxStageTasks = math.max(maxStageTasks, si.numTasks)
    val sw = si.taskMetrics
    if (sw != null) {
      if (sw.shuffleReadMetrics.totalBytesRead > 0) shuffleStages += 1
      if (sw.inputMetrics.bytesRead > 0) inputStages += 1
      totalShuffleWrite += sw.shuffleWriteMetrics.bytesWritten
      totalShuffleRead += sw.shuffleReadMetrics.totalBytesRead
      totalInput += sw.inputMetrics.bytesRead
    }
  }

  /** The 75-dim meta-feature vector: 11 stage slots, then 8 task metrics × 8 statistics. */
  def vector: Array[Double] = synchronized {
    val out = new Array[Double](MetaFeatures.Dim)
    val n = math.max(1, tasks.size)
    // --- 11 stage-level features ---------------------------------------
    out(0) = math.min(1.0, nStages / 16.0)
    out(1) = math.min(1.0, maxStageTasks / 512.0)
    out(2) = if (nStages > 0) shuffleStages.toDouble / nStages else 0.0
    out(3) = if (shuffleStages > 0) 1.0 else 0.0
    out(4) = if (nStages > 0) inputStages.toDouble / nStages else 0.0
    out(5) = math.min(1.0, totalInput / 1e10)
    out(6) = if (totalInput > 0) math.min(1.0, totalShuffleWrite.toDouble / totalInput) else
             math.min(1.0, totalShuffleWrite / 1e9)
    out(7) = math.min(1.0, totalShuffleRead / 1e10)
    out(8) = math.min(1.0, n / 2048.0)
    out(9) = if (nStages > 2) 1.0 else 0.0
    out(10) = if (nStages > 0) math.min(1.0, n.toDouble / nStages / 256.0) else 0.0
    // --- 64 task-level features: 8 metrics × 8 statistics ---------------
    def stats(vs: Seq[Double]): Array[Double] = {
      if (vs.isEmpty) return Array.fill(8)(0.0)
      val s = vs.sorted
      def pct(p: Double) = s(((s.size - 1) * p).toInt)
      val mean = s.sum / s.size
      val std = math.sqrt(s.map(v => (v - mean) * (v - mean)).sum / s.size)
      Array(s.head, pct(0.25), pct(0.5), pct(0.75), s.last, mean, std,
            if (s.last > 0) mean / s.last else 0.0)
    }
    def norm(v: Double, scale: Double): Double = math.min(1.0, v / scale)
    val metricCols: Vector[Seq[Double]] = Vector(
      tasks.map(t => norm(t.durationMs, 60000.0)).toSeq,
      tasks.map(_.cpuRatio.min(1.0)).toSeq,
      tasks.map(_.gcRatio.min(1.0)).toSeq,
      tasks.map(t => norm(t.shuffleReadB, 1e8)).toSeq,
      tasks.map(t => norm(t.shuffleWriteB, 1e8)).toSeq,
      tasks.map(t => norm(t.inputB, 1e8)).toSeq,
      tasks.map(t => norm(t.spilledB, 1e8)).toSeq,
      tasks.map(t => norm(t.resultB, 1e6)).toSeq)
    var i = 0
    metricCols.foreach { col =>
      stats(col).foreach { v => out(MetaFeatures.StageDim + i) = v; i += 1 }
    }
    out
  }
}

object MetricsListener {
  /** Run `body` with a listener attached; returns (body result, features).
    * Blocks until the listener bus drains so all task events are counted. */
  def capture[A](spark: SparkSession)(body: => A): (A, Array[Double]) = {
    val l = new MetricsListener
    spark.sparkContext.addSparkListener(l)
    try {
      val a = body
      // Let queued listener events drain before snapshotting (the listener
      // bus is async and its waitUntilEmpty is private[spark]).
      Thread.sleep(500)
      (a, l.vector)
    } finally spark.sparkContext.removeSparkListener(l)
  }
}
