package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import repro.core.VersioningBenchmark

class HeuristicsSpec extends AnyFunSuite {

  private lazy val sci = VersioningBenchmark.sci(
    numVersions = 40, base = 800, updates = 120, inserts = 30, branches = 5, seed = 21)
  private lazy val und = DeltaGraph.fromRecordSets(sci.versions.map(_.records),
    DeltaMode.Undirected)
  private lazy val dir = DeltaGraph.fromRecordSets(sci.versions.map(_.records),
    DeltaMode.DirectedEq)
  private lazy val dirNeq = DeltaGraph.fromRecordSets(sci.versions.map(_.records),
    DeltaMode.DirectedNeq)

  test("LMG (Problem 7.3) respects the storage budget") {
    for (factor <- Seq(1.2, 1.5, 2.0)) {
      val mstCost = Spanning.primMST(und).storageCost(und)
      val beta = factor * mstCost
      val sol = Lmg.minSumRecreation(und, beta)
      assert(sol.isValid)
      assert(sol.storageCost(und) <= beta + 1e-6, s"factor=$factor over budget")
    }
  }

  test("LMG improves sum recreation monotonically with budget") {
    val mstCost = Spanning.primMST(und).storageCost(und)
    val mstRec = Spanning.primMST(und).sumRecreation(und)
    val r1 = Lmg.minSumRecreation(und, 1.3 * mstCost).sumRecreation(und)
    val r2 = Lmg.minSumRecreation(und, 2.5 * mstCost).sumRecreation(und)
    assert(r1 <= mstRec + 1e-6)
    assert(r2 <= r1 + 1e-6)
  }

  test("LMG works on directed graphs starting from the arborescence") {
    val arb = Spanning.edmonds(dir)
    val beta = 1.5 * arb.storageCost(dir)
    val sol = Lmg.minSumRecreation(dir, beta)
    assert(sol.isValid)
    assert(sol.storageCost(dir) <= beta + 1e-6)
    assert(sol.sumRecreation(dir) <= arb.sumRecreation(dir) + 1e-6)
  }

  test("LMG (Problem 7.5) reaches the recreation threshold when feasible") {
    val sptSum = Spanning.dijkstraSPT(und).sumRecreation(und)
    val theta = sptSum * 1.5
    val sol = Lmg.minStorageSumRecreation(und, theta)
    assert(sol.sumRecreation(und) <= theta + 1e-6)
    // And costs no more storage than materializing everything.
    assert(sol.storageCost(und) <= (1 to und.n).map(und.mat).sum + 1e-6)
  }

  test("MP (Problem 7.6 directed) keeps every recreation under θ") {
    val maxMat = (1 to dir.n).map(dir.phi(0)(_)).max
    for (factor <- Seq(1.0, 1.5, 3.0)) {
      val theta = factor * maxMat
      val sol = ModifiedPrim.run(dir, theta)
      assert(sol.isValid)
      assert(sol.maxRecreation(dir) <= theta + 1e-6, s"factor=$factor")
    }
  }

  test("MP with looser θ uses less storage") {
    val maxMat = (1 to dir.n).map(dir.phi(0)(_)).max
    val tight = ModifiedPrim.run(dir, maxMat)
    val loose = ModifiedPrim.run(dir, 5 * maxMat)
    assert(loose.storageCost(dir) <= tight.storageCost(dir) + 1e-6)
  }

  test("MP budget search (Problem 7.4) fits the storage budget") {
    val arbCost = Spanning.edmonds(dir).storageCost(dir)
    val sol = ModifiedPrim.minMaxRecreationUnderBudget(dir, 1.5 * arbCost)
    assert(sol.storageCost(dir) <= 1.5 * arbCost + 1e-6)
  }

  test("LAST guarantees: paths within α·SPT, weight within (1+2/(α−1))·MST") {
    for (alpha <- Seq(1.5, 2.0, 3.0)) {
      val sol = Last.run(und, alpha)
      assert(sol.isValid)
      val rc = sol.recreationCosts(und)
      val dsp = Spanning.dijkstraSPT(und).recreationCosts(und)
      for (i <- rc.indices)
        assert(rc(i) <= alpha * dsp(i) + 1e-6, s"alpha=$alpha: path $i too long")
      val mst = Spanning.primMST(und).storageCost(und)
      assert(sol.storageCost(und) <= (1 + 2 / (alpha - 1)) * mst + 1e-6,
        s"alpha=$alpha: weight bound violated")
    }
  }

  test("LAST interpolates between SPT (α→1) and MST (α→∞)") {
    val tight = Last.run(und, 1.01)
    val loose = Last.run(und, 50.0)
    val mst = Spanning.primMST(und).storageCost(und)
    val sptMax = Spanning.dijkstraSPT(und).maxRecreation(und)
    assert(math.abs(loose.storageCost(und) - mst) / mst < 0.25)
    assert(tight.maxRecreation(und) <= 1.01 * sptMax + 1e-6)
  }

  test("Problems dispatch: all six variants return valid, feasible solutions") {
    val mst = Spanning.primMST(und).storageCost(und)
    val sptSum = Spanning.dijkstraSPT(und).sumRecreation(und)
    val maxMat = (1 to und.n).map(und.phi(0)(_)).max

    assert(Problems.minStorage(und).isValid)
    assert(Problems.minRecreation(und).isValid)
    assert(Problems.minSumRecreation(und, 1.5 * mst).storageCost(und) <= 1.5 * mst + 1e-6)
    assert(Problems.minMaxRecreation(und, 1.5 * mst).storageCost(und) <= 1.5 * mst + 1e-6)
    assert(Problems.minStorageSumRecreation(und, 1.5 * sptSum).sumRecreation(und) <=
      1.5 * sptSum + 1e-6)
    assert(Problems.minStorageMaxRecreation(und, 2.0 * maxMat).maxRecreation(und) <=
      2.0 * maxMat + 1e-6)
  }

  test("Problems dispatch works in the directed Φ≠Δ scenario") {
    val arb = Spanning.edmonds(dirNeq).storageCost(dirNeq)
    val maxMat = (1 to dirNeq.n).map(dirNeq.phi(0)(_)).max
    val p3 = Problems.minSumRecreation(dirNeq, 1.5 * arb)
    assert(p3.isValid && p3.storageCost(dirNeq) <= 1.5 * arb + 1e-6)
    val p6 = Problems.minStorageMaxRecreation(dirNeq, 2.0 * maxMat)
    assert(p6.isValid && p6.maxRecreation(dirNeq) <= 2.0 * maxMat + 1e-6)
  }

  test("heuristics land between the MST and SPT extremes (Table 7.1 shape)") {
    val mstC = Spanning.primMST(und).storageCost(und)
    val sptC = Spanning.dijkstraSPT(und).storageCost(und)
    val lmg = Lmg.minSumRecreation(und, 1.5 * mstC)
    assert(lmg.storageCost(und) >= mstC - 1e-6)
    assert(lmg.storageCost(und) <= sptC + 1e-6 || lmg.sumRecreation(und) <=
      Spanning.primMST(und).sumRecreation(und))
  }

  test("LMG and LAST plan a 4,000-deep storage tree on a 256 KB stack") {
    // A path: each version is one record from the next and costs 100 to
    // materialize, so the MST is one chain 4,000 deep. Δ = Φ. Δ is dense,
    // (n + 1)² doubles, which bounds the depth; the small stack makes a
    // walk that recursed once per level overflow at this depth.
    val n = 4000
    val cost = Array.fill(n + 1, n + 1)(Double.PositiveInfinity)
    for (j <- 1 to n) { cost(0)(j) = 100; cost(j)(j) = 0 }
    for (j <- 1 until n) { cost(j)(j + 1) = 1; cost(j + 1)(j) = 1 }
    val g = new DeltaGraph(n, cost, cost, directed = false)
    SpanningSpec.onThread(stackBytes = 256 * 1024) {
      val mst = Spanning.primMST(g)
      val beta = 1.2 * mst.storageCost(g)
      val theta = 0.5 * mst.sumRecreation(g)
      val lmg = Lmg.minSumRecreation(g, beta)
      assert(lmg.isValid && lmg.storageCost(g) <= beta + 1e-6)
      assert(lmg.sumRecreation(g) < mst.sumRecreation(g))
      val lmgTheta = Lmg.minStorageSumRecreation(g, theta)
      assert(lmgTheta.isValid && lmgTheta.sumRecreation(g) <= theta)
      // The SPT materializes every version, so LAST(2) grafts one back
      // whenever the MST path passes 200.
      val last = Last.run(g, 2.0)
      assert(last.isValid && last.maxRecreation(g) <= 200)
      assert(last.storageCost(g) < Spanning.dijkstraSPT(g).storageCost(g))
    }
  }
}
