package repro.core.partition

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{IntervalSet, VersioningBenchmark}

class BaselinesSpec extends AnyFunSuite {

  private lazy val g = VersioningBenchmark.sci(
    numVersions = 40, base = 800, updates = 100, inserts = 20, branches = 5, seed = 6)

  test("Agglo produces a complete, valid assignment") {
    val s = Agglo.run(g, bc = 3000)
    assert(s.assignment.length == g.numVersions)
    assert(s.versionsOf.map(_.length).sum == g.numVersions)
  }

  test("Agglo respects the partition capacity BC") {
    val bc = 2500L
    val s = Agglo.run(g, bc)
    for (sizes <- CostModel.partitionSizes(g, s))
      assert(sizes <= bc || s.versionsOf.exists(_.length == 1),
        s"partition exceeds capacity: $sizes > $bc")
  }

  test("Agglo: larger BC yields fewer partitions / less storage") {
    val tight = Agglo.run(g, bc = 1500)
    val loose = Agglo.run(g, bc = 20000)
    assert(loose.numPartitions <= tight.numPartitions)
    assert(CostModel.storageCost(g, loose) <= CostModel.storageCost(g, tight))
  }

  test("Agglo.forBudget meets the storage threshold") {
    val gamma = 2 * g.numRecords
    val s = Agglo.forBudget(g, gamma)
    assert(CostModel.storageCost(g, s) <= gamma)
  }

  test("with γ below |R| nothing fits, and every partitioner returns the single partition") {
    val gamma = g.numRecords - 1
    assert(Agglo.forBudget(g, gamma) == PartitionScheme.single(g.numVersions))
    assert(KMeansPart.forBudget(g, gamma) == PartitionScheme.single(g.numVersions))
    assert(LyreSplit.forBudget(g, gamma).scheme == PartitionScheme.single(g.numVersions))
  }

  test("KMeans produces a complete, valid assignment") {
    val s = KMeansPart.run(g, k = 5)
    assert(s.assignment.length == g.numVersions)
  }

  test("KMeans: more clusters means more storage, less checkout cost") {
    val few = KMeansPart.run(g, k = 2)
    val many = KMeansPart.run(g, k = 12)
    assert(CostModel.storageCost(g, many) >= CostModel.storageCost(g, few))
    assert(CostModel.avgCheckoutCost(g, many) <= CostModel.avgCheckoutCost(g, few) + 1e-6)
  }

  test("KMeans.forBudget meets the storage threshold") {
    val gamma = (1.5 * g.numRecords).toLong
    val s = KMeansPart.forBudget(g, gamma)
    assert(CostModel.storageCost(g, s) <= gamma)
  }

  test("exclusiveSizes attributes depth-1 segments to their sole owner") {
    val records = Vector(
      IntervalSet.fromIntervals(Seq((0L, 9L))),      // v0
      IntervalSet.fromIntervals(Seq((5L, 14L))),     // v1
      IntervalSet.fromIntervals(Seq((20L, 24L))),    // v2
    )
    val ex = KMeansPart.exclusiveSizes(Seq(0, 1, 2), records)
    assert(ex(0) == 5)   // 0..4
    assert(ex(1) == 5)   // 10..14
    assert(ex(2) == 5)   // 20..24
  }

  test("exclusiveSizes is zero for fully covered members") {
    val records = Vector(
      IntervalSet.range(0, 9),
      IntervalSet.range(0, 9),
    )
    val ex = KMeansPart.exclusiveSizes(Seq(0, 1), records)
    assert(ex.getOrElse(0, 0L) == 0)
    assert(ex.getOrElse(1, 0L) == 0)
  }

  test("LyreSplit dominates baselines at equal storage budget (Fig 5.8 shape)") {
    val gamma = 2 * g.numRecords
    val lyre = LyreSplit.forBudget(g, gamma).scheme
    val agglo = Agglo.forBudget(g, gamma)
    val kmeans = KMeansPart.forBudget(g, gamma)
    val cL = CostModel.avgCheckoutCost(g, lyre)
    val cA = CostModel.avgCheckoutCost(g, agglo)
    val cK = CostModel.avgCheckoutCost(g, kmeans)
    assert(cL <= cA * 1.1, s"LyreSplit=$cL vs Agglo=$cA")
    assert(cL <= cK * 1.1, s"LyreSplit=$cL vs KMeans=$cK")
  }
}
