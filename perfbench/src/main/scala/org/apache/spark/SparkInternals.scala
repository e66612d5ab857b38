package org.apache.spark

/** The one Spark-internal call the benchmark needs: listener events are
  * delivered asynchronously, so per-layer counts are read only after the
  * listener bus has delivered everything posted so far.
  */
object SparkInternals {
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
