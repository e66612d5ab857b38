package repro.core.partition

import repro.core.{IntervalSet, VersionGraph}
import scala.util.Random

/** NScale's k-means-clustering partitioner (Algorithm 5 of [61]) mapped
  * to versioning, as in §5.5.1.
  *
  * K random versions seed the partitions; the centroid of a partition is
  * the union of its members' record sets. Versions are assigned to the
  * centroid sharing the most records; centroids are re-unioned; then each
  * iteration moves versions to the partition minimizing total records
  * across partitions. All of this is pairwise record-set intersection
  * work on the bipartite graph — the expensive baseline of Fig 5.10.
  */
object KMeansPart {

  private val Iters = 10 // refinement passes
  private val Seed = 11L
  private val BudgetSteps = 6

  /** Run with `k` partitions. */
  def run(g: VersionGraph, k: Int): PartitionScheme = {
    val n = g.numVersions
    require(k >= 1 && k <= n)
    val rng = new Random(Seed)
    val records = g.versions.map(_.records)

    // Seed with K distinct random versions.
    val seeds = rng.shuffle((0 until n).toList).take(k).toVector
    var centroids: Vector[IntervalSet] = seeds.map(records(_))
    val assignment = Array.fill(n)(-1)
    seeds.zipWithIndex.foreach { case (v, p) => assignment(v) = p }

    // Initial assignment: nearest centroid by common-record count.
    for (v <- 0 until n; if assignment(v) < 0)
      assignment(v) = centroids.indices.maxBy(p => records(v).intersectSize(centroids(p)))
    // Re-union centroids.
    def rebuild(): Unit = {
      centroids = (0 until k).toVector.map { p =>
        val ms = (0 until n).filter(assignment(_) == p).map(records(_))
        if (ms.isEmpty) IntervalSet.empty else IntervalSet.unionAll(ms)
      }
    }
    rebuild()

    // Refinement: move each version to the partition that minimizes the
    // total record count across partitions (greedy, one pass per iter).
    // Moving v from cur to p changes S by |R(v)\centroid(p)| − excl(v),
    // where excl(v) is the records only v contributes to cur.
    for (_ <- 0 until Iters) {
      val excl = (0 until k).flatMap { p =>
        exclusiveSizes((0 until n).filter(assignment(_) == p), records)
      }.toMap
      var moved = false
      for (v <- 0 until n) {
        val cur = assignment(v)
        val addCosts = (0 until k).map(p =>
          if (p == cur) 0L
          else records(v).diff(centroids(p)).size - excl.getOrElse(v, 0L))
        val bestP = (0 until k).minBy(addCosts(_))
        if (bestP != cur && addCosts(bestP) < addCosts(cur)) {
          assignment(v) = bestP
          moved = true
        }
      }
      if (moved) rebuild()
    }
    PartitionScheme(assignment.toVector).compact
  }

  /** Records covered by exactly one member: vid -> exclusive count
    * (sweep line over all member intervals).
    */
  private[partition] def exclusiveSizes(
      members: Seq[Int], records: Vector[IntervalSet]): Map[Int, Long] = {
    // Events: (position, +1/-1, vid); interval [s, e] opens at s, closes at e+1.
    val events = members.flatMap { v =>
      records(v).intervals.flatMap { case (s, e) => Seq((s, 1, v), (e + 1, -1, v)) }
    }.sortBy(ev => (ev._1, ev._2))
    val acc = scala.collection.mutable.Map.empty[Int, Long]
    val active = scala.collection.mutable.Map.empty[Int, Int]
    var prev = Long.MinValue
    for ((pos, d, v) <- events) {
      if (active.size == 1 && pos > prev) {
        val owner = active.keysIterator.next()
        acc(owner) = acc.getOrElse(owner, 0L) + (pos - prev)
      }
      prev = pos
      val c = active.getOrElse(v, 0) + d
      if (c == 0) active.remove(v) else active(v) = c
    }
    acc.toMap
  }

  /** Integer binary search on K for Problem 5.1 (larger K ⇒ more storage,
    * less checkout cost; lo = K + 1 on a fit, else hi = K − 1), by
    * [[CostModel.cheapestWithin]] from the single partition. When nothing
    * fits (γ < |R|), returns the single partition.
    */
  def forBudget(g: VersionGraph, gamma: Long): PartitionScheme = {
    val single = PartitionScheme.single(g.numVersions)
    var (lo, hi) = (1, g.numVersions)
    val probes = Iterator.fill(BudgetSteps) {
      val mid = (lo + hi) / 2
      val s = run(g, math.max(1, mid))
      val sizes = CostModel.partitionSizes(g, s)
      if (sizes.sum <= gamma) lo = mid + 1 else hi = mid - 1
      (s, sizes)
    }
    CostModel.cheapestWithin(gamma,
      Iterator((single, CostModel.partitionSizes(g, single))) ++ probes)(identity)
      .getOrElse(single)
  }
}
