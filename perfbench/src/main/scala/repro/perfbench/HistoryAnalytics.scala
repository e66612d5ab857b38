package repro.perfbench

import java.nio.file.Path
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{VersionGraph, VersioningBenchmark}
import repro.core.model.CvdStore
import repro.core.partition._
import repro.lang.{Evaluator, Parser, Repository, VersionMeta}
import repro.provenance.LineageInference
import repro.storage._
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Analytics over a version history, one pass per op:
  *  1. the undirected delta graph from the membership relation;
  *  2. planning on the driver: the Ch.7 solvers P1–P6 and online
  *     maintenance on a longer history that exists only on the driver,
  *     then LyreSplit for a larger budget and two migration plans for the
  *     store;
  *  3. lineage inference;
  *  4. a migration round trip γ=1.5|R| → 2|R| → 1.5|R|, which restores the
  *     starting layout;
  *  5. VQuel queries over the newest versions, whose relations are
  *     partitioned-store checkouts.
  * Little checkout scanning happens here, so changes to checkout or
  * commit bypass this workload, and changes to the optimizers bypass the
  * other two.
  */
final class HistoryAnalytics(spark: SparkSession, t: Tracer, seed: Long) extends Workload {
  import HistoryAnalytics._

  private val rng = new Random(seed)
  private var g: VersionGraph = _
  private var pg: VersionGraph = _
  private var pdg: DeltaGraph = _
  private var store: PartitionedStore = _
  private var low: PartitionScheme = _
  private var membership: DataFrame = _
  private var refGraph: DeltaGraph = _
  private var refs: Map[Int, Digest] = Map.empty
  private var queryRefs: Map[String, Set[Vector[Any]]] = Map.empty
  private var queryVids: Vector[Int] = Vector.empty
  private var queries: Vector[(String, String)] = Vector.empty
  private var modified = 0L
  private var naive = 0L
  private val scannedPerRow = ArrayBuffer.empty[Double]

  private def gamma(f: Double): Long = (f * g.numRecords).toLong

  def setup(dir: Path): Unit = {
    g = t.span("core.VersioningBenchmark.generate")(VersioningBenchmark.generate(config(seed)))
    val data = t.span("core.VersioningBenchmark.dataTableDF")(
      VersioningBenchmark.dataTableDF(spark, g, Attrs))
    low = t.span("core.partition.LyreSplit.forBudget")(LyreSplit.forBudget(g, gamma(1.5))).scheme
    store = new PartitionedStore(spark, dir)
    t.span("core.partition.PartitionedStore.load", "load")(store.load(data, g, low))
    pg = t.span("core.VersioningBenchmark.generate")(VersioningBenchmark.generate(planConfig(seed)))
    pdg = DeltaGraph.fromRecordSets(pg.versions.map(_.records), DeltaMode.Undirected)
  }

  def prepare(): Unit = {
    membership = VersioningBenchmark.membershipDF(spark, g)
    val data = VersioningBenchmark.dataTableDF(spark, g, Attrs)
    refGraph = DeltaGraph.fromRecordSets(g.versions.map(_.records), DeltaMode.Undirected)
    refs = Digest.byVersion(membership, data, Cols)
    // The overlap self-join inside `infer` cannot be timed from outside, so
    // it is timed once here on its own; its version sizes double as a check
    // that the membership relation matches the generator.
    val (_, sizes) = t.span("provenance.LineageInference.pairwiseOverlaps")(
      LineageInference.pairwiseOverlaps(spark, membership))
    require(g.versions.forall(v => sizes(v.vid) == v.records.size), "membership mismatch")

    val n = g.numVersions
    val newest = (n - QueryVersions until n).toVector
    queryVids = (newest ++ newest.flatMap(g.versions(_).parents)).distinct.sorted
    val newestRecords = g.versions(n - 1).records
    val pk = newestRecords.atRank(rng.nextLong(newestRecords.size))
    val a1 = data.where(col("pk") === pk).select("a1").head().getLong(0)
    val since = n - QueryVersions
    queries = Vector(
      "filtered_count" ->
        s"""range of V is Version(creation_ts >= $since)
           |range of E is V.Relations(name = ||R||).Tuples
           |retrieve V.id, count(E.pk where E.a1 < $Threshold)""".stripMargin,
      "count_delta" ->
        s"""range of V is Version(creation_ts >= $since)
           |range of P is V.P(1)
           |retrieve V.id, abs(count(V.Relations.Tuples) - count(P.Relations.Tuples))""".stripMargin,
      "tuple_history" ->
        s"""range of V is Version(creation_ts >= $since)
           |range of R is V.Relations
           |range of E is R.Tuples
           |retrieve V.id, E.a1
           |where E.pk = $pk and R.name = ||R||""".stripMargin)
    val below = membership.join(data.where(col("a1") < Threshold), "rid")
      .groupBy("vid").count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    def size(v: Int): Long = g.versions(v).records.size
    queryRefs = Map(
      "filtered_count" -> newest.map(v => Vector[Any](id(v), below.getOrElse(v, 0L))).toSet,
      "count_delta" -> newest.map { v =>
        val ps = g.versions(v).parents.map(size).sum
        Vector[Any](id(v), math.abs(size(v) - ps).toDouble)
      }.toSet,
      "tuple_history" -> newest.filter(g.versions(_).records.contains(pk))
        .map(v => Vector[Any](id(v), a1)).toSet)
  }

  val warmupOps = 1

  def op(i: Int): Op = {
    val n = g.numVersions
    val (dg, graph) = Workload.measure("delta_graph")(
      t.span("storage.DeltaGraph.fromMembership", "delta_graph")(
        DeltaGraph.fromMembership(spark, membership, n, DeltaMode.Undirected)))
    val okGraph = sameGraph(dg, refGraph)

    val (plan, planStep) = Workload.measure("plan")(planning(pdg))
    val okPlan = plan.ok(pdg, g, low, gamma(2.0))

    val (lineage, lineageStep) = Workload.measure("lineage")(
      t.span("provenance.LineageInference.infer", "lineage")(
        LineageInference.infer(spark, membership, g.versions.map(v => v.vid -> v.commitTs).toMap)))
    val okLineage = LineageInference.evaluate(lineage, g).f1 == 1.0

    val (_, migrate) = Workload.measure("migrate") {
      t.span("core.partition.PartitionedStore.migrate", "migrate")(store.migrate(plan.high, plan.up))
      t.span("core.partition.PartitionedStore.migrate", "migrate")(store.migrate(low, plan.down))
    }
    modified = plan.up.totalModifiedRecords + plan.down.totalModifiedRecords
    naive = Migration.naiveCost(g, plan.high) + Migration.naiveCost(g, low)
    val okMigrate = (0 until MigrationChecks).forall { _ =>
      val v = rng.nextInt(n)
      if (t.recording)
        scannedPerRow += CostModel.checkoutCost(g, low, v).toDouble / g.versions(v).records.size
      t.span("core.partition.PartitionedStore.checkout", "checkout")(
        Digest.of(store.checkout(v), Cols)) == refs(v)
    }

    val (answers, query) = Workload.measure("query") {
      val repo = Repository(queryVids.map { v =>
        VersionMeta(id(v), s"commit $v", g.versions(v).commitTs, "analyst",
          g.versions(v).parents.filter(queryVids.contains).map(id),
          Map("R" -> store.checkout(v)))
      })
      queries.map { case (name, text) =>
        val q = t.span("lang.Parser.parse")(Parser.parse(text))
        name -> t.span(s"lang.Evaluator.run.$name", "query")(Evaluator.run(repo, q))
      }
    }
    val okQuery = answers.forall { case (name, r) =>
      r.rows.length == queryRefs(name).size && r.rows.toSet == queryRefs(name)
    }

    Op(Vector(graph, planStep, lineageStep, migrate, query),
      okGraph && okPlan && okLineage && okMigrate && okQuery)
  }

  private def planning(dg: DeltaGraph): Plan = {
    def solve(name: String, bound: Double)(f: => StorageSolution) =
      (name, t.span(s"storage.Problems.$name")(f), bound)
    val p1 = solve("minStorage", Double.NaN)(Problems.minStorage(dg))
    val p2 = solve("minRecreation", Double.NaN)(Problems.minRecreation(dg))
    val c = p1._2.storageCost(dg) * 1.5
    val sumR = p2._2.sumRecreation(dg) * 1.5
    val maxR = (1 to dg.n).map(dg.phi(0)(_)).max * 1.5
    val solutions = Vector(p1, p2,
      solve("minSumRecreation", c)(Problems.minSumRecreation(dg, c)),
      solve("minMaxRecreation", c)(Problems.minMaxRecreation(dg, c)),
      solve("minStorageSumRecreation", sumR)(Problems.minStorageSumRecreation(dg, sumR)),
      solve("minStorageMaxRecreation", maxR)(Problems.minStorageMaxRecreation(dg, maxR)))
    val high = t.span("core.partition.LyreSplit.forBudget")(
      LyreSplit.forBudget(g, gamma(2.0))).scheme
    val sim = t.span("core.partition.OnlineMaintenance.simulate")(
      OnlineMaintenance.simulate(pg, 2 * pg.numRecords, mu = 1.5, evalEvery = 20))
    val up = t.span("core.partition.Migration.plan")(Migration.plan(g, low, high))
    val down = t.span("core.partition.Migration.plan")(Migration.plan(g, high, low))
    Plan(solutions, high, sim, up, down)
  }

  private def sameGraph(a: DeltaGraph, b: DeltaGraph): Boolean =
    a.n == b.n && a.directed == b.directed &&
      a.delta.indices.forall(i => a.delta(i).sameElements(b.delta(i)) &&
        a.phi(i).sameElements(b.phi(i)))

  def storageAmp: Double =
    CvdStore.du(store.dir).toDouble / (g.numRecords * Workload.rowBytes(Attrs))

  def counts: Map[String, Double] = Map(
    "core.partition.checkout_rows_scanned_per_row" -> Workload.median(scannedPerRow.toSeq),
    "core.partition.migrate_records_modified" -> modified.toDouble,
    "core.partition.migrate_naive_records" -> naive.toDouble,
    "core.partition.versioning_bytes_per_data_byte" -> Workload.versioningPerData(store.dir))
}

object HistoryAnalytics {
  final case class Plan(solutions: Vector[(String, StorageSolution, Double)],
                         high: PartitionScheme, sim: OnlineMaintenance.SimResult,
                         up: Migration.Plan, down: Migration.Plan) {
    /** Every solution is a valid storage graph within its constraint, the
      * larger-budget layout fits its budget, and each plan covers every new
      * partition.
      */
    def ok(dg: DeltaGraph, g: VersionGraph, low: PartitionScheme, budget: Long): Boolean =
      solutions.forall { case (_, s, _) => s.isValid } &&
        solutions.forall { case (p, s, bound) => p match {
          case "minSumRecreation" | "minMaxRecreation" => s.storageCost(dg) <= bound
          case "minStorageSumRecreation" => s.sumRecreation(dg) <= bound
          case "minStorageMaxRecreation" => s.maxRecreation(dg) <= bound
          case _ => true
        } } &&
        CostModel.storageCost(g, high) <= budget &&
        sim.steps.nonEmpty &&
        up.assignments.length == high.numPartitions &&
        down.assignments.length == low.numPartitions
  }

  def config(seed: Long): VersioningBenchmark.Config =
    VersioningBenchmark.Config(numVersions = 24, base = 2000, updates = 180,
      inserts = 20, branches = 2, mergeEvery = 0, seed = seed)
  /** The planning step's history: 200 versions, 10 branches. Its solvers
    * and online maintenance need no Spark, so it can be long enough for
    * the planning step to weigh in a pass (about a fifth of its CPU).
    */
  def planConfig(seed: Long): VersioningBenchmark.Config =
    VersioningBenchmark.Config(numVersions = 200, base = 2000, updates = 180,
      inserts = 20, branches = 10, mergeEvery = 0, seed = seed)
  val Attrs = 10
  val Cols: Seq[String] = Seq("rid", "pk") ++ (1 to Attrs).map(i => s"a$i")
  /** VQuel queries range over this many newest versions. */
  val QueryVersions = 2
  /** Versions checked out after each migration round trip. */
  val MigrationChecks = 1
  val Threshold = 50000

  private def id(v: Int): String = s"v$v"
}
