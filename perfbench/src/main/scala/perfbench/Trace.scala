package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.util.LongAccumulator
import repro.core.Metric

/** Counts the distance evaluations made through it — the paper's cost unit
  * t_dis. The counter is a `LongAccumulator`: registered with Spark it sums
  * the calls made in executor tasks, unregistered it is a plain counter.
  */
final class CountingMetric[T](inner: Metric[T], val calls: LongAccumulator) extends Metric[T] {
  override def dist(a: T, b: T): Double = { calls.add(1L); inner.dist(a, b) }
}

object CountingMetric {
  def local[T](inner: Metric[T]): CountingMetric[T] = new CountingMetric(inner, new LongAccumulator)
}

/** Counts Spark jobs and tasks and sums executor run time. */
final class JobCounter(sc: SparkContext) extends SparkListener {
  private var jobs  = 0L
  private var tasks = 0L
  private var runMs = 0L
  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobs += 1 }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    if (e.taskMetrics != null) runMs += e.taskMetrics.executorRunTime
  }

  /** (jobs, tasks, executor run seconds) since the last call. */
  def take(): (Long, Long, Double) = {
    org.apache.spark.PerfbenchBus.drain(sc)
    synchronized {
      val r = (jobs, tasks, runMs / 1e3)
      jobs = 0; tasks = 0; runMs = 0
      r
    }
  }

  def close(): Unit = sc.removeSparkListener(this)
}

/** Wall-clock helpers. */
object Clock {
  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r  = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }
}
