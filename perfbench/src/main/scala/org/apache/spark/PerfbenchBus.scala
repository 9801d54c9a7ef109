package org.apache.spark

/** Listener events are delivered asynchronously; the benchmark waits for the
  * bus to drain before it reads its job and task counters. The bus is
  * package-private to Spark, hence this one-line bridge in Spark's package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
