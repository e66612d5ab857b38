package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core.{VersionGraph, VersioningBenchmark}
import repro.storage._

/** Table T6 — reproduces Table 7.1 / §7.5: the storage-recreation
  * tradeoff across the six problems and three scenarios. The Δ/Φ graph is
  * built from the membership relation: record sets recovered in one Spark
  * pass, intersected on the driver; each solver's total storage C, average
  * recreation R̄ and max recreation are reported.
  */
object T6StorageRecreation {

  final case class Row(dataset: String, scenario: String, problem: String,
                       algo: String, storage: Double, avgRecreation: Double,
                       maxRecreation: Double)

  def datasets(): Seq[(String, VersionGraph)] = Seq(
    "SCI_rep" -> VersioningBenchmark.sci(60, 3000, 270, 30, 6, seed = 42),
    "CUR_rep" -> VersioningBenchmark.cur(60, 3000, 270, 30, 6, 9, seed = 42),
  )

  def run(spark: SparkSession,
          ds: Seq[(String, VersionGraph)] = datasets()): Seq[Row] = {
    val out = Seq.newBuilder[Row]
    for ((name, g) <- ds) {
      val m = VersioningBenchmark.membershipDF(spark, g)
      val scenarios = Seq(
        ("undirected Φ=Δ", DeltaMode.Undirected),
        ("directed Φ=Δ", DeltaMode.DirectedEq),
        ("directed Φ≠Δ", DeltaMode.DirectedNeq),
      )
      for ((scen, mode) <- scenarios) {
        val dg = DeltaGraph.fromMembership(spark, m, g.numVersions, mode)
        def emit(problem: String, algo: String, sol: StorageSolution): Unit = {
          val rc = sol.recreationCosts(dg)
          out += Row(name, scen, problem, algo, sol.storageCost(dg),
            rc.sum / rc.size, rc.max)
        }
        val mst = Problems.minStorage(dg)
        emit("P1 min C", if (dg.directed) "MCA(Edmonds)" else "MST(Prim)", mst)
        emit("P2 min R", "SPT(Dijkstra)", Problems.minRecreation(dg))
        val mstC = mst.storageCost(dg)
        for (f <- Seq(1.25, 1.5, 2.0)) {
          emit(f"P3 ΣR|C≤$f%.2fC_mst", "LMG", Problems.minSumRecreation(dg, f * mstC))
          emit(f"P4 maxR|C≤$f%.2fC_mst",
            if (dg.directed) "MP" else "LAST", Problems.minMaxRecreation(dg, f * mstC))
        }
        val sptSum = Problems.minRecreation(dg).sumRecreation(dg)
        emit("P5 C|ΣR≤1.5ΣR_spt", "LMG", Problems.minStorageSumRecreation(dg, 1.5 * sptSum))
        val maxMat = (1 to dg.n).map(dg.phi(0)(_)).max
        for (f <- Seq(1.5, 3.0)) {
          emit(f"P6 C|maxR≤$f%.1fΦmax",
            if (dg.directed) "MP" else "LAST", Problems.minStorageMaxRecreation(dg, f * maxMat))
        }
      }
    }
    out.result()
  }

  val paperShape: String =
    """Paper (Ch 7): MST/MCA minimizes storage with the worst recreation; SPT
      |the reverse; LMG/MP/LAST interpolate — recreation falls monotonically as
      |the storage budget grows, and a ~2x storage budget buys near-SPT recreation.""".stripMargin

  def table(rows: Seq[Row]): String =
    Tables.print("T6 — Storage/recreation across the six problems (Table 7.1, §7.5)",
      Seq("dataset", "scenario", "problem", "algo", "C", "avg_R", "max_R"),
      rows.map(r => Seq(r.dataset, r.scenario, r.problem, r.algo, r.storage,
        r.avgRecreation, r.maxRecreation)))
}
