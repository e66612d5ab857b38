package repro.core.partition

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{IntervalSet, Version, VersionGraph, VersioningBenchmark}

class LyreSplitSpec extends AnyFunSuite {

  private lazy val sci = VersioningBenchmark.sci(
    numVersions = 60, base = 1000, updates = 120, inserts = 20, branches = 6, seed = 2)
  private lazy val cur = VersioningBenchmark.cur(
    numVersions = 60, base = 1000, updates = 120, inserts = 20, branches = 6,
    mergeEvery = 9, seed = 2)

  test("every version is assigned to exactly one partition") {
    val r = LyreSplit.run(sci, 0.5)
    assert(r.scheme.assignment.length == sci.numVersions)
    assert(r.scheme.assignment.forall(_ >= 0))
  }

  test("partitions are connected subtrees of the version tree") {
    val r = LyreSplit.run(sci, 0.5)
    for (pid <- 0 until r.scheme.numPartitions) {
      val members = r.scheme.versionsOf(pid).toSet
      // Each partition has exactly one member whose tree parent is outside.
      val localRoots = members.count { v =>
        val p = sci.treeParent(v); p < 0 || !members.contains(p)
      }
      assert(localRoots == 1, s"partition $pid has $localRoots local roots")
    }
  }

  test("Theorem 5.2: checkout cost within (1/δ)·|E|/|V|") {
    for (delta <- Seq(0.1, 0.3, 0.5, 0.9)) {
      val r = LyreSplit.run(sci, delta)
      val c = CostModel.avgCheckoutCost(sci, r.scheme)
      val bound = (1.0 / delta) * CostModel.minCheckoutCost(sci)
      assert(c <= bound + 1e-6, s"delta=$delta: C_avg=$c exceeds bound=$bound")
    }
  }

  test("Theorem 5.2: storage within (1+δ)^ℓ · (|R| + |R̂|)") {
    for (delta <- Seq(0.1, 0.3, 0.5)) {
      val r = LyreSplit.run(sci, delta)
      val s = CostModel.storageCost(sci, r.scheme)
      val bound = math.pow(1 + delta, r.recursionLevels) *
        (sci.numRecords + sci.numDuplicatedRecords)
      assert(s <= bound + 1e-6, s"delta=$delta: S=$s exceeds bound=$bound")
    }
  }

  test("monotonicity: larger δ gives more partitions and lower checkout cost") {
    val small = LyreSplit.run(sci, 0.05)
    val large = LyreSplit.run(sci, 0.9)
    assert(large.scheme.numPartitions >= small.scheme.numPartitions)
    val cSmall = CostModel.avgCheckoutCost(sci, small.scheme)
    val cLarge = CostModel.avgCheckoutCost(sci, large.scheme)
    assert(cLarge <= cSmall + 1e-6)
  }

  test("forBudget respects the storage threshold") {
    for (factor <- Seq(1.2, 1.5, 2.0)) {
      val gamma = (factor * sci.numRecords).toLong
      val r = LyreSplit.forBudget(sci, gamma)
      assert(CostModel.storageCost(sci, r.scheme) <= gamma,
        s"factor=$factor: storage over budget")
    }
  }

  test("forBudget with γ=2|R| substantially beats the single partition") {
    val gamma = 2 * sci.numRecords
    val r = LyreSplit.forBudget(sci, gamma)
    val c = CostModel.avgCheckoutCost(sci, r.scheme)
    val single = CostModel.avgCheckoutCost(sci, PartitionScheme.single(sci.numVersions))
    assert(c < single * 0.8, s"partitioned=$c vs single=$single")
  }

  test("DAG workloads (CUR) partition with the same guarantees") {
    val r = LyreSplit.run(cur, 0.3)
    val c = CostModel.avgCheckoutCost(cur, r.scheme)
    assert(c <= (1 / 0.3) * CostModel.minCheckoutCost(cur) + 1e-6)
    val gamma = 2 * cur.numRecords
    val rb = LyreSplit.forBudget(cur, gamma)
    assert(CostModel.storageCost(cur, rb.scheme) <= gamma)
  }

  test("weighted case keeps hot versions in small partitions") {
    val freq = sci.versions.map(v => if (v.vid > 50) 20L else 1L)
    val scheme = LyreSplit.runWeighted(sci, freq, 0.5)
    assert(scheme.assignment.length == sci.numVersions)
    val cw = CostModel.weightedCheckoutCost(sci, scheme, freq)
    val cwSingle = CostModel.weightedCheckoutCost(
      sci, PartitionScheme.single(sci.numVersions), freq)
    assert(cw <= cwSingle)
  }

  test("δ = 1 maximally splits; tiny δ keeps one partition") {
    val one = LyreSplit.run(sci, 1e-6)
    assert(one.scheme.numPartitions == 1)
    val many = LyreSplit.run(sci, 1.0)
    assert(many.scheme.numPartitions > 1)
  }

  test("run and forBudget handle a 50,000-version chain without recursion") {
    // Each version keeps 90 of its parent's 100 records: a chain as deep
    // as the graph, with every tree edge a split candidate.
    val n = 50000
    val chain = VersionGraph(Vector.tabulate(n) { i =>
      Version(i, if (i == 0) Vector.empty else Vector(i - 1),
        IntervalSet.range(10L * i, 10L * i + 99), i.toLong)
    })
    val r = LyreSplit.run(chain, 0.1)
    assert(r.scheme.numVersions == n && r.scheme.numPartitions > 1)
    val gamma = 2 * chain.numRecords
    val b = LyreSplit.forBudget(chain, gamma)
    assert(b.scheme.numPartitions > 1)
    assert(CostModel.storageCost(chain, b.scheme) <= gamma)
  }
}
