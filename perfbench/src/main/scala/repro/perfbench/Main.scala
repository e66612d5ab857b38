package repro.perfbench

import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import repro.experiments.Tables
import repro.jobs.Jobs
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** Runs one workload: set-up several times, untimed references and
  * warm-up, then a closed loop of ops for a fixed number of seconds.
  * Prints a table of the metrics, then, as its last line, the raw result
  * as JSON. Start it through `perfbench/run.py`, which builds the program
  * and adds units.
  *
  * Arguments: --workload NAME --seed N --seconds S --trace 0|1
  * --work DIR (scratch space for the stores) --out DIR (env record and
  * spans) --source ID (revision of the sources measured).
  */
object Main {
  val SetupRepeats = 3

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        work: Path, out: Path, source: String)

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val spark = Jobs.session(s"perfbench-${a.workload}")
    spark.sparkContext.setLogLevel("WARN")
    val result = try run(spark, a) finally spark.stop()
    println(result)
  }

  private def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"--$k is required"))
    Args(get("workload"), get("seed").toLong, get("seconds").toDouble, get("trace") == "1",
      Paths.get(get("work")), Paths.get(get("out")), m.getOrElse("source", "unknown"))
  }

  private def phase(s: Step): Step = {
    Console.err.println(f"perfbench: ${s.name} took ${s.wall}%.2f s, ${s.cpu}%.2f cpu s")
    s
  }

  private def workload(spark: SparkSession, t: Tracer, a: Args): Workload = a.workload match {
    case "branch-commit"     => new BranchCommit(spark, t, a.seed)
    case "history-analytics" => new HistoryAnalytics(spark, t, a.seed)
    case other => throw new IllegalArgumentException(s"unknown workload '$other'")
  }

  private def run(spark: SparkSession, a: Args): String = {
    Files.createDirectories(a.out)
    val env = Json.obj(Seq(
      "workload" -> a.workload, "seed" -> a.seed, "seconds" -> a.seconds, "trace" -> a.trace,
      "source" -> a.source,
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "driver_heap_bytes" -> Runtime.getRuntime.maxMemory,
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
      "spark" -> spark.version,
      "spark_conf" -> spark.sparkContext.getConf.getAll.toSeq.sortBy(_._1).toMap))
    println(s"env $env")
    Files.writeString(a.out.resolve("env.json"), env + "\n")

    val t = new Tracer(spark.sparkContext)
    val w = workload(spark, t, a)

    t.recording = a.trace
    val setups = (1 to SetupRepeats).map { k =>
      val (_, s) = Workload.measure(s"setup $k")(w.setup(a.work.resolve(s"store-$k")))
      Workload.deleteRecursively(a.work.resolve(s"store-${k - 1}"))
      phase(s)
    }
    phase(Workload.measure("prepare")(w.prepare())._2)
    t.recording = false

    var failed = 0
    var attempted = 0
    def attempt(i: Int): Option[Op] = {
      attempted += 1
      val op = try Some(w.op(i)) catch {
        case NonFatal(e) => e.printStackTrace(); None
      }
      if (!op.exists(_.ok)) failed += 1
      op
    }
    phase(Workload.measure("warm-up")((0 until w.warmupOps).foreach(attempt))._2)

    // Timed phase. In a traced run every other op records spans; the ops
    // between them run without spans or listener, so they measure the
    // tracing overhead. A traced run therefore times at least two ops.
    val timed = ArrayBuffer.empty[(Op, Boolean)]
    val t0 = System.nanoTime()
    var i = w.warmupOps
    while ((System.nanoTime() - t0) / 1e9 < a.seconds || (a.trace && i - w.warmupOps < 2)) {
      val traced = a.trace && (i - w.warmupOps) % 2 == 0
      t.recording = traced; t.op = i
      attempt(i).foreach(op => timed += op -> traced)
      t.recording = false
      i += 1
    }
    val wall = (System.nanoTime() - t0) / 1e9
    require(timed.nonEmpty, "no op completed")
    Files.writeString(a.out.resolve("ops.jsonl"), timed.map { case (op, traced) =>
      Json.obj(Seq("traced" -> traced, "ok" -> op.ok) ++
        op.steps.flatMap(s => Seq(s"${s.name}_s" -> s.wall, s"${s.name}_cpu_s" -> s.cpu)))
    }.mkString("", "\n", "\n"))
    val ops = timed.map(_._1).toVector
    val med = (xs: Seq[Double]) => Workload.median(xs)

    // The gated metrics count CPU seconds: on a shared host, wall time
    // swings with the CPU time the hypervisor steals, CPU time far less.
    val amp = w.storageAmp
    val e2e = Seq(
      "op_cpu_s" -> med(ops.map(_.cpu)),
      "storage_amp" -> amp,
      "setup_s" -> med(setups.map(_.cpu)))

    val rows = Seq.newBuilder[Seq[Any]]
    rows += Seq("setup_s", "cpu s", med(setups.map(_.cpu)), setups.length)
    rows += Seq("setup_wall_s", "s", med(setups.map(_.wall)), setups.length)
    for (name <- ops.head.steps.map(_.name)) {
      val ss = ops.flatMap(_.steps.filter(_.name == name))
      rows += Seq(s"${name}_p50_s", "s", med(ss.map(_.wall)), ss.length)
      if (ss.length >= 100)
        rows += Seq(s"${name}_p90_s", "s", Workload.quantile(ss.map(_.wall), 0.9), ss.length)
      rows += Seq(s"${name}_cpu_s", "cpu s", med(ss.map(_.cpu)), ss.length)
    }
    rows += Seq("op_p50_s", "s", med(ops.map(_.wall)), ops.length)
    rows += Seq("op_cpu_s", "cpu s", med(ops.map(_.cpu)), ops.length)
    rows += Seq("ops_per_s", "ops/s", ops.length / wall, ops.length)
    rows += Seq("storage_amp", "ratio", amp, 1)
    rows += Seq("failed_frac", "ratio", failed.toDouble / attempted, attempted)
    Tables.print(s"${a.workload} seed=${a.seed} (${ops.length} timed ops in ${f"$wall%.1f"} s)",
      Seq("metric", "unit", "value", "samples"), rows.result())

    val metrics =
      if (!a.trace) e2e
      else {
        val layers = perLayer(t, w, timed.toVector)
        Tables.print(s"${a.workload} per layer (traced)", Seq("metric", "value"),
          layers.filter(_._2 != 0).map { case (k, v) => Seq(k, v) })
        Files.writeString(a.out.resolve("trace.jsonl"), t.dump().mkString("", "\n", "\n"))
        layers
      }
    Json.obj(Seq("correct" -> (failed == 0), "attempted" -> attempted, "failed" -> failed,
      "metrics" -> metrics.toMap))
  }

  /** Kinds of user operation whose Spark work is counted per op. */
  val SparkOps = Seq("load", "checkout", "commit", "diff", "migrate", "delta_graph",
    "lineage", "query")

  /** Functions whose spans report a median self time, `<name>_s`. */
  val Timed = Seq(
    "core.VersioningBenchmark.generate", "core.VersioningBenchmark.dataTableDF",
    "core.model.SplitByRlist.load", "core.model.SplitByRlist.checkout",
    "core.model.SplitByRlist.commit", "core.model.SplitByRlist.diffVersions",
    "core.partition.PartitionedStore.load", "core.partition.PartitionedStore.checkout",
    "core.partition.PartitionedStore.migrate", "core.partition.LyreSplit.forBudget",
    "core.partition.OnlineMaintenance.simulate", "core.partition.Migration.plan",
    "storage.DeltaGraph.fromMembership",
    "storage.Problems.minStorage", "storage.Problems.minRecreation",
    "storage.Problems.minSumRecreation", "storage.Problems.minMaxRecreation",
    "storage.Problems.minStorageSumRecreation", "storage.Problems.minStorageMaxRecreation",
    "provenance.LineageInference.infer", "provenance.LineageInference.pairwiseOverlaps",
    "lang.Parser.parse")

  val Queries = Seq("filtered_count", "count_delta", "tuple_history")

  /** Counts a workload reports itself; zero where it does not apply. */
  val Counted = Seq(
    "core.model.commit_bytes_written_per_user_byte", "core.model.store_files",
    "core.partition.checkout_rows_scanned_per_row", "core.partition.migrate_records_modified",
    "core.partition.migrate_naive_records", "core.partition.versioning_bytes_per_data_byte")

  /** Every per-layer metric, in a fixed order. A layer a workload does not
    * call reports zero.
    */
  private def perLayer(t: Tracer, w: Workload, timed: Vector[(Op, Boolean)]): Seq[(String, Double)] = {
    val spans = t.finish()
    def med(xs: Seq[Double]) = if (xs.isEmpty) 0.0 else Workload.median(xs)
    def self(name: String) = med(spans.filter(_.name == name).map(t.selfSeconds))

    val fns = Timed.map(n => s"${n}_s" -> self(n))
    val queries = Queries.map(q => s"lang.Evaluator.run_s.$q" -> self(s"lang.Evaluator.run.$q"))
    val counted = Counted.map(n => n -> w.counts.getOrElse(n, 0.0))
    val spark = SparkOps.flatMap { x =>
      val ss = spans.filter(_.kind == x)
      val cs = ss.map(t.sparkCounts)
      def m(f: Tracer.Counts => Double) = med(cs.map(f))
      Seq(
        s"spark.$x.jobs" -> m(_.jobs.toDouble),
        s"spark.$x.tasks" -> m(_.tasks.toDouble),
        s"spark.$x.input_bytes" -> m(_.inputBytes.toDouble),
        s"spark.$x.input_rows" -> m(_.inputRows.toDouble),
        s"spark.$x.shuffle_write_bytes" -> m(_.shuffleWriteBytes.toDouble),
        s"spark.$x.shuffle_rows" -> m(_.shuffleRows.toDouble),
        s"spark.$x.output_bytes" -> m(_.outputBytes.toDouble),
        s"spark.$x.executor_run_s" -> m(_.executorRunMs / 1e3),
        s"spark.$x.driver_s" -> med(ss.map(t.driverSeconds)))
    }
    val traced = med(timed.filter(_._2).map(_._1.cpu))
    val untraced = med(timed.filterNot(_._2).map(_._1.cpu))
    val overhead = Seq(
      "trace.traced_op_cpu_s" -> traced,
      "trace.untraced_op_cpu_s" -> untraced,
      "trace.overhead_frac" -> (if (untraced > 0) traced / untraced - 1 else 0.0))
    fns ++ queries ++ counted ++ spark ++ overhead
  }
}
