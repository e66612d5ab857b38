package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.VersioningBenchmark
import repro.core.partition.{CostModel, LyreSplit}
import repro.experiments.{T3PartitionerRuntime, Tables, Workloads}

/** T3 — Fig 5.10/5.12: partitioner running times at γ = 2|R|. Shape:
  * LyreSplit is orders of magnitude faster than both NScale baselines
  * (paper: 10^3x vs AGGLO, >10^5x vs KMEANS).
  */
class T3PartitionerRuntimeBench extends AnyFunSuite {

  private lazy val datasets = Workloads.sciSuite(1.0).take(2) ++ Workloads.curSuite(1.0).take(1)
  private lazy val rows = T3PartitionerRuntime.run(datasets)

  test("T3 table prints (paper vs measured)") {
    println(T3PartitionerRuntime.paperShape)
    T3PartitionerRuntime.table(rows)
    assert(rows.nonEmpty)
  }

  test("shape: LyreSplit is much faster than AGGLO on every dataset") {
    for (ds <- rows.map(_.dataset).distinct) {
      val byAlgo = rows.filter(_.dataset == ds).map(r => r.algo -> r.seconds).toMap
      assert(byAlgo("LyreSplit") * 3 < byAlgo("AGGLO"),
        s"$ds: LyreSplit=${byAlgo("LyreSplit")}s AGGLO=${byAlgo("AGGLO")}s")
    }
  }

  test("shape: LyreSplit is much faster than KMEANS on every dataset") {
    for (ds <- rows.map(_.dataset).distinct) {
      val byAlgo = rows.filter(_.dataset == ds).map(r => r.algo -> r.seconds).toMap
      assert(byAlgo("LyreSplit") * 3 < byAlgo("KMEANS"),
        s"$ds: LyreSplit=${byAlgo("LyreSplit")}s KMEANS=${byAlgo("KMEANS")}s")
    }
  }

  test("all algorithms met the storage budget") {
    for (((name, g), _) <- datasets.zipWithIndex; r <- rows.filter(_.dataset == name))
      assert(r.storageRecords <= 2 * g.numRecords,
        s"$name/${r.algo}: over budget")
  }

  test("driver-only LyreSplit at 5,000 SCI versions meets its budget") {
    // No Spark and no baselines: only the version tree and interval sets,
    // at a version count the NScale baselines cannot reach here.
    val g = VersioningBenchmark.sci(
      numVersions = 5000, base = 2000, updates = 180, inserts = 20, branches = 500, seed = 42)
    val gamma = 2 * g.numRecords
    val (r, runS) = Tables.timed(LyreSplit.run(g, 0.1))
    val (b, budgetS) = Tables.timed(LyreSplit.forBudget(g, gamma))
    val storage = CostModel.storageCost(g, b.scheme)
    Tables.print("T3 — LyreSplit alone, SCI 5,000 versions (driver only, γ=2|R|)",
      Seq("records", "run(δ=0.1)_s", "partitions", "forBudget_s", "partitions",
        "storage_records", "checkout_records"),
      Seq(Seq[Any](g.numRecords, runS, r.scheme.numPartitions, budgetS, b.scheme.numPartitions,
        storage, CostModel.avgCheckoutCost(g, b.scheme))))
    assert(storage <= gamma, s"forBudget: S=$storage over γ=$gamma")
  }
}
