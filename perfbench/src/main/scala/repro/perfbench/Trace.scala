package repro.perfbench

import java.util.Properties
import org.apache.spark.{SparkContext, SparkInternals}
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spans recorded by the benchmark around its calls into the program's
  * public functions, plus a SparkListener that attributes every Spark job,
  * stage and task to the innermost span open when the job was submitted.
  *
  * Attribution goes through a job-local property set on the client thread,
  * so it needs no hooks inside the program. Spans are kept in memory and
  * written out when the run ends. The listener is registered only while
  * `recording` is on, and with it off a span is just its body: untraced
  * runs pay nothing, and a traced run can interleave untraced ops to
  * measure the tracing overhead.
  */
final class Tracer(sc: SparkContext) {
  import Tracer._

  private var on = false
  def recording: Boolean = on
  /** Turning recording off waits until the listener has seen every event
    * posted so far, then unregisters it.
    */
  def recording_=(r: Boolean): Unit = {
    if (r && !on) sc.addSparkListener(listener)
    if (on && !r) {
      SparkInternals.drainListenerBus(sc)
      sc.removeSparkListener(listener)
    }
    on = r
  }
  /** Index of the timed op now running, or -1 during set-up and warm-up. */
  var op: Int = -1

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[(Int, String, String, Long, Long)] = Nil
  private var nextId = 0

  private val jobs = mutable.Map.empty[Int, Job]
  private val stageSpan = mutable.Map.empty[Int, Int]
  private val counts = mutable.Map.empty[Int, Counts]

  private val lock = new Object
  private val listener = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = lock.synchronized {
      spanOf(e.properties).foreach { s =>
        jobs(e.jobId) = Job(s, e.time, e.time)
        e.stageIds.foreach(stageSpan(_) = s)
        countsOf(s).jobs += 1
      }
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = lock.synchronized {
      jobs.get(e.jobId).foreach(_.endMs = e.time)
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = lock.synchronized {
      for (s <- stageSpan.get(e.stageId); m <- Option(e.taskMetrics)) {
        val c = countsOf(s)
        c.tasks += 1
        c.inputBytes += m.inputMetrics.bytesRead
        c.inputRows += m.inputMetrics.recordsRead
        c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        c.shuffleRows += m.shuffleWriteMetrics.recordsWritten
        c.outputBytes += m.outputMetrics.bytesWritten
        c.executorRunMs += m.executorRunTime
      }
    }
  }
  private def spanOf(p: Properties): Option[Int] =
    Option(p).flatMap(x => Option(x.getProperty(SpanProperty))).map(_.toInt)
  private def countsOf(s: Int): Counts = counts.getOrElseUpdate(s, new Counts)

  /** Run `body` inside a span named after the program function it calls.
    * `kind` names the user operation (load, checkout, commit, ...) whose
    * Spark work the span's jobs count toward.
    */
  def span[T](name: String, kind: String = "")(body: => T): T = {
    if (!on) return body
    val id = nextId; nextId += 1
    val parent = open.headOption.map(_._1).getOrElse(-1)
    open = (id, name, kind, System.nanoTime(), System.currentTimeMillis()) :: open
    sc.setLocalProperty(SpanProperty, id.toString)
    try body
    finally {
      val (_, _, _, t0, m0) = open.head
      open = open.tail
      spans += Span(id, name, kind, parent, op, t0, System.nanoTime(), m0,
        System.currentTimeMillis())
      sc.setLocalProperty(SpanProperty, open.headOption.map(_._1.toString).orNull)
    }
  }

  /** Every recorded span. */
  def finish(): Vector[Span] = spans.toVector

  /** Seconds of a span not covered by its own child spans. */
  def selfSeconds(s: Span): Double =
    s.seconds - spans.iterator.filter(_.parent == s.id).map(_.seconds).sum

  /** Summed task metrics of the jobs run under `s` or its descendants. */
  def sparkCounts(s: Span): Counts = lock.synchronized {
    val ids = subtree(s.id)
    val out = new Counts
    for (id <- ids; c <- counts.get(id)) {
      out.jobs += c.jobs; out.tasks += c.tasks; out.inputBytes += c.inputBytes
      out.inputRows += c.inputRows; out.shuffleWriteBytes += c.shuffleWriteBytes
      out.shuffleRows += c.shuffleRows; out.outputBytes += c.outputBytes
      out.executorRunMs += c.executorRunMs
    }
    out
  }

  /** The span's seconds outside the union of its jobs' intervals: time the
    * driver spent planning, collecting and waiting on anything but a job.
    */
  def driverSeconds(s: Span): Double = lock.synchronized {
    val ids = subtree(s.id)
    val ivs = jobs.valuesIterator.filter(j => ids(j.span))
      .map(j => (math.max(j.startMs, s.startMs), math.min(j.endMs, s.endMs)))
      .filter { case (a, b) => b > a }.toVector.sortBy(_._1)
    var covered = 0L; var curS = -1L; var curE = -1L
    for ((a, b) <- ivs) {
      if (a > curE) { covered += curE - curS; curS = a; curE = b }
      else curE = math.max(curE, b)
    }
    covered += curE - curS
    math.max(0.0, s.seconds - covered / 1e3)
  }

  private def subtree(root: Int): Set[Int] = {
    val kids = spans.groupBy(_.parent).map { case (p, ss) => p -> ss.map(_.id) }
    val out = mutable.Set(root)
    var frontier = List(root)
    while (frontier.nonEmpty) {
      val next = frontier.flatMap(kids.getOrElse(_, Nil))
      out ++= next; frontier = next
    }
    out.toSet
  }

  /** Spans and their jobs as JSON lines, for offline analysis. */
  def dump(): Iterator[String] = lock.synchronized {
    val js = jobs.toVector.sortBy(_._1).map { case (id, j) =>
      Json.obj(Seq("job" -> id, "span" -> j.span, "start_ms" -> j.startMs, "end_ms" -> j.endMs))
    }
    val ss = spans.sortBy(_.id).map { s =>
      val c = sparkCounts(s)
      Json.obj(Seq("span" -> s.id, "name" -> s.name, "kind" -> s.kind, "parent" -> s.parent,
        "op" -> s.op, "start_ms" -> s.startMs, "end_ms" -> s.endMs, "seconds" -> s.seconds,
        "self_s" -> selfSeconds(s), "jobs" -> c.jobs, "tasks" -> c.tasks))
    }
    (ss ++ js).iterator
  }
}

object Tracer {
  val SpanProperty = "perfbench.span"

  final case class Span(id: Int, name: String, kind: String, parent: Int, op: Int,
                        startNs: Long, endNs: Long, startMs: Long, endMs: Long) {
    def seconds: Double = (endNs - startNs) / 1e9
  }

  /** One Spark job, with the span it ran under and its time interval. */
  final case class Job(span: Int, startMs: Long, var endMs: Long)

  /** Task metrics summed over every task of one span's jobs. */
  final class Counts {
    var jobs = 0L; var tasks = 0L; var inputBytes = 0L; var inputRows = 0L
    var shuffleWriteBytes = 0L; var shuffleRows = 0L; var outputBytes = 0L
    var executorRunMs = 0L
  }
}
