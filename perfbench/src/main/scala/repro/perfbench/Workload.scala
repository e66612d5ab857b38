package repro.perfbench

import java.nio.file.Path

/** Wall-clock and CPU seconds of one measured step. CPU seconds are summed
  * over every thread of the JVM, Spark's executor threads included.
  */
final case class Step(name: String, wall: Double, cpu: Double)

/** One timed op of a workload: its measured steps, and whether every
  * output of the op matched its reference. Checks run outside the steps.
  */
final case class Op(steps: Vector[Step], ok: Boolean) {
  def wall: Double = steps.map(_.wall).sum
  def cpu: Double = steps.map(_.cpu).sum
}

/** A seeded workload run in a closed loop by one client. */
trait Workload {
  /** Generate the inputs and load them into a store under `dir`: the work
    * `setup_s` times. Called several times per run; the last call's store
    * is the one the timed ops use.
    */
  def setup(dir: Path): Unit

  /** Compute the references the checks compare against. Untimed. */
  def prepare(): Unit

  /** Untimed ops run before timing starts. */
  def warmupOps: Int

  def op(i: Int): Op

  /** Bytes on disk of the store ÷ bytes of the user data it holds. */
  def storageAmp: Double

  /** Per-layer counts the workload measures itself, by metric name. */
  def counts: Map[String, Double]
}

object Workload {
  private val os = java.lang.management.ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def cpuSeconds(): Double = os.getProcessCpuTime / 1e9

  /** Run `body` as the step `name`, measuring its wall and CPU seconds. */
  def measure[T](name: String)(body: => T): (T, Step) = {
    val c0 = cpuSeconds()
    val w0 = System.nanoTime()
    val r = body
    (r, Step(name, (System.nanoTime() - w0) / 1e9, cpuSeconds() - c0))
  }

  /** Bytes of user data per record: rid, pk and the attributes, 8 bytes each. */
  def rowBytes(attrs: Int): Long = (2L + attrs) * 8

  def deleteRecursively(p: Path): Unit =
    if (java.nio.file.Files.exists(p)) {
      val s = java.nio.file.Files.walk(p)
      try s.sorted(java.util.Comparator.reverseOrder()).forEach(java.nio.file.Files.delete(_))
      finally s.close()
    }

  def fileCount(p: Path): Long = {
    val s = java.nio.file.Files.walk(p)
    try s.filter(java.nio.file.Files.isRegularFile(_)).count()
    finally s.close()
  }

  /** Bytes of the files under directories named `versioning` ÷ bytes of
    * those under directories named `data`: the rlists' size relative to
    * the records they list.
    */
  def versioningPerData(store: Path): Double = {
    val s = java.nio.file.Files.walk(store)
    val files = try s.filter(java.nio.file.Files.isRegularFile(_)).toArray.toSeq
      .map(_.asInstanceOf[Path]) finally s.close()
    def under(name: String) = files
      .filter(f => (0 until f.getNameCount).exists(i => f.getName(i).toString == name))
      .map(java.nio.file.Files.size(_)).sum
    under("versioning").toDouble / under("data")
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile, `q` in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
}
