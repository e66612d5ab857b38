package repro

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.SparkTestInternals
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** Counts what Spark runs inside a block: its jobs, the shuffle bytes its
  * tasks write, and the rows its tasks write to output files.
  */
object SparkJobs {
  final case class Counts(jobs: Long, shuffleWriteBytes: Long, rowsWritten: Long)

  /** Run `body` and count the Spark jobs started, shuffle bytes written and
    * output rows written until it returns. Events posted before it are
    * drained first, so they are not counted.
    */
  def count[T](spark: SparkSession)(body: => T): (T, Counts) = {
    val sc = spark.sparkContext
    val jobs = new AtomicLong
    val bytes = new AtomicLong
    val rows = new AtomicLong
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        Option(e.taskMetrics).foreach { m =>
          bytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
          rows.addAndGet(m.outputMetrics.recordsWritten)
        }
    }
    SparkTestInternals.drainListenerBus(sc)
    sc.addSparkListener(listener)
    try {
      val out = body
      SparkTestInternals.drainListenerBus(sc)
      (out, Counts(jobs.get, bytes.get, rows.get))
    } finally sc.removeSparkListener(listener)
  }
}
