package org.apache.spark

/** Waits until Spark's listener bus has delivered every queued event, so
  * counters read afterwards cover all work submitted so far. The bus is
  * private to Spark, hence this object lives in Spark's package.
  */
object BenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
