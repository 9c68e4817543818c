package perfbench

import scala.collection.mutable
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}

/** Watches Spark tasks from outside the program: per-task executor run
  * time and scheduler delay, grouped by stage. Registered only in traced
  * runs. */
final class SparkObserver extends SparkListener {
  import SparkObserver.Task
  private val tasks = mutable.ArrayBuffer.empty[Task]

  override def onTaskEnd(end: SparkListenerTaskEnd): Unit = {
    val m = end.taskMetrics
    if (m != null) {
      val info = end.taskInfo
      // Spark UI's scheduler delay: the task's wall time not spent
      // deserialising, running, serialising its result or fetching it.
      val delay = info.duration - m.executorRunTime - m.executorDeserializeTime -
        m.resultSerializationTime - info.gettingResultTime
      synchronized { tasks += Task(end.stageId, m.executorRunTime.toDouble, delay.max(0L).toDouble) }
    }
  }

  def reset(): Unit = synchronized(tasks.clear())

  def taskCount: Int = synchronized(tasks.size)

  def meanSchedulerDelayMs: Double = synchronized(Stats.mean(tasks.map(_.delayMs).toSeq))

  /** Max over mean executor run time in the stage that did the most work. */
  def taskSkew: Double = synchronized {
    if (tasks.isEmpty) 1.0
    else {
      val busiest = tasks.groupBy(_.stage).values.maxBy(_.map(_.runMs).sum)
      val runs = busiest.map(_.runMs)
      val m = Stats.mean(runs.toSeq)
      if (m <= 0) 1.0 else runs.max / m
    }
  }
}

object SparkObserver {
  private final case class Task(stage: Int, runMs: Double, delayMs: Double)
}
