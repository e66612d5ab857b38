package org.apache.spark

/** The one Spark-internal call the tests need: listener events are
  * delivered asynchronously, so a count is read only after the listener
  * bus has delivered everything posted so far.
  */
object SparkTestInternals {
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
