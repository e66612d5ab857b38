package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import repro.{SparkJobs, SparkSpec}
import repro.core.{IntervalSet, Membership, VersioningBenchmark}

class DeltaGraphSpec extends AnyFunSuite with SparkSpec {

  private val sets = Vector(
    IntervalSet.range(0, 9),      // 10 records
    IntervalSet.range(5, 14),     // overlap 5 with v1
    IntervalSet.range(20, 29),    // disjoint
  )

  test("materialization cost is the version size in every mode") {
    for (mode <- Seq(DeltaMode.Undirected, DeltaMode.DirectedEq, DeltaMode.DirectedNeq)) {
      val g = DeltaGraph.fromRecordSets(sets, mode)
      assert(g.mat(1) == 10.0 && g.mat(2) == 10.0 && g.mat(3) == 10.0)
    }
  }

  test("undirected mode: Δ is the symmetric difference and symmetric") {
    val g = DeltaGraph.fromRecordSets(sets, DeltaMode.Undirected)
    assert(g.delta(1)(2) == 10.0) // 5 + 5
    assert(g.delta(2)(1) == 10.0)
    assert(g.delta(1)(3) == 20.0) // disjoint
    assert(g.phi(1)(2) == g.delta(1)(2))
  }

  test("directed mode: inserts full cost, deletes tombstone cost") {
    val g = DeltaGraph.fromRecordSets(sets, DeltaMode.DirectedEq)
    // 1 -> 2: 5 inserts + 5 deletes * 0.1
    assert(math.abs(g.delta(1)(2) - 5.5) < 1e-9)
    assert(g.phi(1)(2) == g.delta(1)(2))
  }

  test("directed Φ≠Δ mode: recreation counts the full symmetric diff") {
    val g = DeltaGraph.fromRecordSets(sets, DeltaMode.DirectedNeq)
    assert(math.abs(g.delta(1)(2) - 5.5) < 1e-9)
    assert(g.phi(1)(2) == 10.0)
    assert(g.phi(1)(2) != g.delta(1)(2))
  }

  test("undirected deltas satisfy the triangle inequality (Eq 7.3/7.4)") {
    val g = VersioningBenchmark.sci(15, 400, 60, 10, 3, seed = 12)
    val dg = DeltaGraph.fromRecordSets(g.versions.map(_.records), DeltaMode.Undirected)
    val n = dg.n
    for (p <- 1 to n; q <- 1 to n; w <- 1 to n; if p != q && q != w && p != w) {
      assert(dg.delta(p)(w) <= dg.delta(p)(q) + dg.delta(q)(w) + 1e-9,
        s"triangle violated for ($p,$q,$w)")
    }
    for (p <- 1 to n; q <- 1 to n; if p != q) {
      assert(dg.mat(q) <= dg.mat(p) + dg.delta(p)(q) + 1e-9)
      assert(math.abs(dg.mat(p) - dg.delta(p)(q)) <= dg.mat(q) + 1e-9)
    }
  }

  test("Membership.overlaps matches the driver-side graph with an empty and a disjoint version") {
    // v3 is empty; v4 shares records with v0 and v2, with single-rid
    // intervals; v5 shares none.
    val all = sets ++ Vector(IntervalSet.empty,
      IntervalSet.fromIntervals(Seq((3L, 6L), (8L, 8L), (25L, 26L), (28L, 28L))),
      IntervalSet.range(100, 104))
    val n = all.length
    // Three partitions split a version's rids; one (vid, rid) pair repeats.
    val m = Membership(spark, all.indices.map(v => v -> all(v)))
      .unionByName(Membership(spark, Seq(4 -> IntervalSet.range(8, 8))))
      .repartition(3)
    val recovered = Membership.recordSets(m)
    assert(recovered == all.indices.filterNot(all(_).isEmpty).map(v => v -> all(v)).toMap)
    val (pairs, sizes) = Membership.overlaps(recovered)
    assert(sizes == all.indices.filterNot(all(_).isEmpty).map(v => v -> all(v).size).toMap)
    assert(pairs == (for (u <- 0 until n; v <- u + 1 until n; x = all(u).intersectSize(all(v)); if x > 0)
      yield (u, v) -> x).toMap)
    for (mode <- Seq(DeltaMode.Undirected, DeltaMode.DirectedEq, DeltaMode.DirectedNeq)) {
      val viaSpark = DeltaGraph.fromMembership(spark, m, n, mode)
      val viaDriver = DeltaGraph.fromRecordSets(all, mode)
      for (i <- 0 to n)
        assert(viaSpark.delta(i).sameElements(viaDriver.delta(i)) &&
          viaSpark.phi(i).sameElements(viaDriver.phi(i)), s"$mode row $i")
    }
  }

  test("membership construction matches the driver-side one") {
    val g = VersioningBenchmark.sci(12, 300, 40, 10, 3, seed = 13)
    val m = VersioningBenchmark.membershipDF(spark, g)
    val viaSpark = DeltaGraph.fromMembership(spark, m, g.numVersions, DeltaMode.Undirected)
    val viaDriver = DeltaGraph.fromRecordSets(g.versions.map(_.records), DeltaMode.Undirected)
    for (i <- 0 to g.numVersions; j <- 1 to g.numVersions; if i != j)
      assert(math.abs(viaSpark.delta(i)(j) - viaDriver.delta(i)(j)) < 1e-9,
        s"Δ($i)($j) mismatch")
  }

  test("fromMembership rejects a vid outside 0..n-1, naming it") {
    val shared = Seq(0 -> IntervalSet.range(0, 9), 1 -> IntervalSet.range(5, 14))
    for ((vid, s) <- Seq(2 -> IntervalSet.range(0, 4), 2 -> IntervalSet.range(50, 54),
                         -1 -> IntervalSet.range(0, 4))) {
      val m = Membership(spark, shared :+ (vid -> s))
      val e = intercept[IllegalArgumentException](
        DeltaGraph.fromMembership(spark, m, 2, DeltaMode.Undirected))
      assert(e.getMessage.contains(s"vid(s) $vid "), e.getMessage)
    }
  }

  test("Membership.recordSets runs one Spark job and shuffles nothing") {
    val g = VersioningBenchmark.sci(12, 300, 40, 10, 3, seed = 13)
    val (sets, counts) = SparkJobs.count(spark)(
      Membership.recordSets(VersioningBenchmark.membershipDF(spark, g)))
    assert(sets == g.versions.map(v => v.vid -> v.records).toMap)
    assert(counts.jobs == 1 && counts.shuffleWriteBytes == 0)
  }
}
