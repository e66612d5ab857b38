package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{IntervalSet, Version, VersionGraph}
import repro.core.partition.LyreSplit
import scala.util.Random

/** Exact-algorithm checks against brute-force enumeration of all valid
  * storage graphs (the paper's ILP yardstick — DESIGN.md §4).
  */
class SpanningSpec extends AnyFunSuite {

  private def randomSets(n: Int, seed: Long): Vector[IntervalSet] = {
    val rng = new Random(seed)
    Vector.fill(n) {
      IntervalSet.fromIntervals(Vector.fill(1 + rng.nextInt(3)) {
        val s = rng.nextInt(60).toLong
        (s, s + 5 + rng.nextInt(15))
      })
    }
  }

  test("StorageSolution recreation costs follow root paths") {
    val sets = Vector(IntervalSet.range(0, 9), IntervalSet.range(5, 14))
    val g = DeltaGraph.fromRecordSets(sets, DeltaMode.Undirected)
    val sol = StorageSolution(Vector(-1, 0, 1)) // v1 materialized, v2 delta from v1
    val rc = sol.recreationCosts(g)
    assert(rc(0) == 10.0)
    assert(rc(1) == 10.0 + 10.0) // mat(1) + symdiff(1,2)=10
    assert(sol.storageCost(g) == 10.0 + 10.0)
  }

  test("isValid rejects cycles") {
    val sets = randomSets(3, 1)
    StorageSolution(Vector(-1, 2, 1, 0)) // 1<->2 cycle
      .ensuring(!_.isValid)
    assert(StorageSolution(Vector(-1, 0, 1, 2)).isValid)
  }

  test("tree walks take a 100,000-deep chain on a thread with the default stack") {
    // Node j is a delta from j + 1 and node n is materialized, so the walk
    // from node 1 is n deep. Every Δ and Φ is 1: all nodes share one row.
    val n = 100000
    val chain = StorageSolution(-1 +: Vector.tabulate(n)(j => if (j + 1 == n) 0 else j + 2))
    val ones = Array.fill(n + 1)(1.0)
    val g = new DeltaGraph(n, Array.fill(n + 1)(ones), Array.fill(n + 1)(ones), directed = false)
    // A version chain as deep: each version keeps 90 of its parent's 100 records.
    val versions = VersionGraph(Vector.tabulate(n) { i =>
      Version(i, if (i == 0) Vector.empty else Vector(i - 1), IntervalSet.range(10L * i, 10L * i + 99), i.toLong)
    })
    SpanningSpec.onThread() {
      assert(chain.isValid)
      assert(!StorageSolution(-1 +: Vector.tabulate(n)(j => if (j + 1 == n) 1 else j + 2)).isValid)
      val rc = chain.recreationCosts(g)
      assert(rc.head == n && rc.last == 1)
      val r = LyreSplit.run(versions, 0.1)
      assert(r.scheme.numVersions == n && r.scheme.numPartitions > 1)
    }
  }

  test("recreationCosts rejects a cyclic parent map, naming the node") {
    val g = DeltaGraph.fromRecordSets(randomSets(3, 1), DeltaMode.Undirected)
    val e = intercept[IllegalStateException](StorageSolution(Vector(-1, 2, 3, 1)).recreationCosts(g))
    assert(e.getMessage.contains("at node 1"))
  }

  test("recreationCosts names the lowest unreached node, one hanging off a cycle") {
    // Node 1 is a delta from node 2, which sits on the cycle 2 ↔ 3.
    val g = DeltaGraph.fromRecordSets(randomSets(3, 1), DeltaMode.Undirected)
    val e = intercept[IllegalStateException](StorageSolution(Vector(-1, 2, 3, 2)).recreationCosts(g))
    assert(e.getMessage == "cycle in storage solution at node 1")
  }

  for (seed <- 0 until 5) {
    test(s"Prim MST matches brute-force minimum storage, undirected (seed=$seed)") {
      val g = DeltaGraph.fromRecordSets(randomSets(5, seed), DeltaMode.Undirected)
      val mst = Spanning.primMST(g)
      val opt = Problems.bruteForce(g, _.storageCost(g))
      assert(mst.isValid)
      assert(math.abs(mst.storageCost(g) - opt.storageCost(g)) < 1e-6,
        s"MST=${mst.storageCost(g)} opt=${opt.storageCost(g)}")
    }
  }

  for (seed <- 0 until 5) {
    test(s"Edmonds arborescence matches brute-force minimum storage, directed (seed=$seed)") {
      val g = DeltaGraph.fromRecordSets(randomSets(5, 100 + seed), DeltaMode.DirectedEq)
      val arb = Spanning.edmonds(g)
      val opt = Problems.bruteForce(g, _.storageCost(g))
      assert(arb.isValid, s"invalid arborescence: ${arb.parent}")
      assert(math.abs(arb.storageCost(g) - opt.storageCost(g)) < 1e-6,
        s"Edmonds=${arb.storageCost(g)} opt=${opt.storageCost(g)}")
    }
  }

  for (seed <- 0 until 5) {
    test(s"Dijkstra SPT minimizes every recreation cost (seed=$seed)") {
      val g = DeltaGraph.fromRecordSets(randomSets(5, 200 + seed), DeltaMode.DirectedNeq)
      val spt = Spanning.dijkstraSPT(g)
      assert(spt.isValid)
      val rc = spt.recreationCosts(g)
      // Optimal per-version recreation from brute force over sum (the
      // solution minimizing ΣR also minimizes each R_i in a complete graph).
      val opt = Problems.bruteForce(g, _.sumRecreation(g))
      val optRc = opt.recreationCosts(g)
      for (i <- rc.indices)
        assert(rc(i) <= optRc(i) + 1e-6, s"R_${i + 1}: spt=${rc(i)} opt=${optRc(i)}")
    }
  }

  test("SPT recreation of each version is at most its materialization cost") {
    val g = DeltaGraph.fromRecordSets(randomSets(6, 42), DeltaMode.Undirected)
    val rc = Spanning.dijkstraSPT(g).recreationCosts(g)
    for (j <- 1 to g.n) assert(rc(j - 1) <= g.phi(0)(j) + 1e-9)
  }

  test("MST storage lower-bounds every other valid solution") {
    val g = DeltaGraph.fromRecordSets(randomSets(5, 77), DeltaMode.Undirected)
    val mst = Spanning.primMST(g).storageCost(g)
    val spt = Spanning.dijkstraSPT(g).storageCost(g)
    assert(mst <= spt + 1e-9)
  }
}

object SpanningSpec {

  /** Runs `body` on a new thread with a stack of `stackBytes` (0: the JVM's
    * default) and rethrows what it threw; a StackOverflowError fails the
    * test rather than aborting the suite.
    */
  def onThread[T](stackBytes: Long = 0)(body: => T): T = {
    var out: Either[Throwable, T] = Left(new IllegalStateException("not run"))
    val run: Runnable = () => out = try Right(body) catch { case e: Throwable => Left(e) }
    val t = new Thread(null, run, "tree-walk", stackBytes)
    t.start(); t.join()
    out.fold({
      case e: VirtualMachineError => throw new AssertionError(e)
      case e => throw e
    }, identity)
  }
}
