package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.IntervalSetMeasures._

/** IntervalSet is the substrate every driver-side algorithm builds on —
  * verify its set algebra exhaustively against scala.collection.Set.
  */
class IntervalSetSpec extends AnyFunSuite {

  private def ref(s: IntervalSet): Set[Long] = s.toSeq.toSet

  test("empty set") {
    assert(IntervalSet.empty.isEmpty)
    assert(IntervalSet.empty.size == 0)
    assert(IntervalSet.empty.numIntervals == 0)
  }

  test("range basics") {
    val s = IntervalSet.range(3, 7)
    assert(s.size == 5)
    assert(s.toSeq == Seq(3L, 4L, 5L, 6L, 7L))
    assert(IntervalSet.range(5, 4).isEmpty)
  }

  test("fromIntervals normalizes overlaps and adjacency") {
    val s = IntervalSet.fromIntervals(Seq((1L, 3L), (4L, 6L), (10L, 12L), (5L, 8L)))
    assert(s.intervals == Vector((1L, 8L), (10L, 12L)))
  }

  test("fromSeq round-trips") {
    val xs = Seq(5L, 1L, 2L, 9L, 3L, 9L)
    assert(IntervalSet.fromSeq(xs).toSeq == xs.distinct.sorted)
  }

  test("contains via binary search") {
    val s = IntervalSet.fromIntervals(Seq((1L, 3L), (7L, 9L), (20L, 20L)))
    for (x <- Seq(1L, 2L, 3L, 7L, 9L, 20L)) assert(s.contains(x), s"should contain $x")
    for (x <- Seq(0L, 4L, 6L, 10L, 19L, 21L)) assert(!s.contains(x), s"should not contain $x")
  }

  test("atRank enumerates in order") {
    val s = IntervalSet.fromIntervals(Seq((10L, 12L), (20L, 21L)))
    assert((0L until s.size).map(s.atRank) == Seq(10L, 11L, 12L, 20L, 21L))
    assertThrows[IllegalArgumentException](s.atRank(5))
  }

  test("removeRankRange removes a contiguous run in rank space") {
    val s = IntervalSet.fromIntervals(Seq((10L, 12L), (20L, 22L)))
    val t = s.removeRankRange(2, 2) // removes values 12 and 20
    assert(ref(t) == Set(10L, 11L, 21L, 22L))
  }

  // Randomized algebra checks against the reference implementation.
  for (seed <- 0 until 8) {
    test(s"randomized union/intersect/diff agree with reference sets (seed=$seed)") {
      val rng = new Random(seed)
      def randSet(): IntervalSet = IntervalSet.fromIntervals(
        Vector.fill(rng.nextInt(10)) {
          val s = rng.nextInt(100).toLong
          (s, s + rng.nextInt(12))
        })
      for (_ <- 0 until 30) {
        val a = randSet(); val b = randSet()
        val (ra, rb) = (ref(a), ref(b))
        assert(ref(a.union(b)) == ra.union(rb), "union")
        assert(ref(a.intersect(b)) == ra.intersect(rb), "intersect")
        assert(a.intersectSize(b) == ra.intersect(rb).size.toLong, "intersectSize")
        assert(ref(a.diff(b)) == ra.diff(rb), "diff")
        assert(a.symmetricDiffSize(b) ==
          (ra.diff(rb).size + rb.diff(ra).size).toLong, "symmetricDiffSize")
      }
    }
  }

  test("union is idempotent and commutative") {
    val a = IntervalSet.fromIntervals(Seq((1L, 5L), (8L, 9L)))
    val b = IntervalSet.fromIntervals(Seq((4L, 8L)))
    assert(a.union(a) == a)
    assert(a.union(b) == b.union(a))
  }

  test("diff with self is empty; diff with empty is identity") {
    val a = IntervalSet.fromIntervals(Seq((1L, 5L), (8L, 9L)))
    assert(a.diff(a).isEmpty)
    assert(a.diff(IntervalSet.empty) == a)
    assert(IntervalSet.empty.diff(a).isEmpty)
  }

  test("unionAll merges many sets") {
    val sets = (0 until 10).map(i => IntervalSet.range(i * 10, i * 10 + 5))
    val u = IntervalSet.unionAll(sets)
    assert(u.size == 60)
    assert(u.numIntervals == 10)
  }

  test("removeRankRange clamps out-of-range arguments") {
    val s = IntervalSet.range(0, 9)
    assert(s.removeRankRange(-5, 3).size == 7)   // clamped to rank 0
    assert(s.removeRankRange(8, 100).size == 8)  // removes last 2
    assert(s.removeRankRange(0, 0) == s)
  }

  test("interval compactness is maintained under churn") {
    var s = IntervalSet.range(0, 9999)
    val rng = new Random(1)
    for (_ <- 0 until 100)
      s = s.removeRankRange(rng.nextInt(s.size.toInt - 50), 50)
        .union(IntervalSet.range(10000 + rng.nextInt(100000), 10000 + rng.nextInt(100000)))
    assert(s.numIntervals < 400, s"interval count exploded: ${s.numIntervals}")
  }
}
