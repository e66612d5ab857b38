package repro.core.partition

import repro.core.{Bisect, IntervalSet, VersionGraph}
import scala.collection.mutable
import scala.util.Random

/** NScale's agglomerative-clustering partitioner (Algorithm 4 of [61]),
  * mapped to the versioning setting as in §5.5.1: versions are grouped
  * into partitions allowing record duplication.
  *
  * Each partition carries a shingle signature (min-hashes of its record
  * set); partitions are ordered by shingles and each one only considers
  * its following 100 partitions as merge candidates, merging when
  * common shingles exceed a sampled threshold τ and the merged record
  * count stays within capacity `bc`. Works on the full record sets (the
  * bipartite graph) — hence far slower than LyreSplit, as in the paper.
  */
object Agglo {

  private val NumShingles = 16
  private val Lookahead = 100 // merge candidates per partition
  private val Seed = 7L       // of τ's sample and the min-hashes
  private val BudgetSteps = 10

  private def shingles(records: IntervalSet): Vector[Long] = {
    // Min-hash over all rids (O(|R(v)|) per version — bipartite-graph work).
    val heap = mutable.PriorityQueue.empty[Long] // max-heap keeps k smallest
    for ((s, e) <- records.intervals; r <- s to e) {
      val h = scala.util.hashing.byteswap64(r ^ Seed)
      if (heap.size < NumShingles) heap += h
      else if (h < heap.head) { heap.dequeue(); heap += h }
    }
    heap.toVector.sorted
  }

  /** Run one agglomerative pass with partition capacity `bc` (records). */
  def run(g: VersionGraph, bc: Long): PartitionScheme = {
    val rng = new Random(Seed)
    final case class Part(members: List[Int], records: IntervalSet, sig: Vector[Long])
    var parts: Vector[Part] = g.versions.map { v =>
      Part(List(v.vid), v.records, shingles(v.records))
    }

    def common(a: Vector[Long], b: Vector[Long]): Int = a.toSet.intersect(b.toSet).size

    var changed = true
    while (changed) {
      changed = false
      // Shingle-based ordering.
      parts = parts.sortBy(_.sig.mkString(","))
      // Sampled threshold τ: median common-shingle count of a uniform
      // sample of adjacent pairs (NScale's uniform-sampling heuristic).
      val sampled =
        if (parts.length < 2) Vector(0)
        else Vector.fill(math.min(32, parts.length - 1)) {
          val i = rng.nextInt(parts.length - 1)
          common(parts(i).sig, parts(i + 1).sig)
        }.sorted
      val tau = math.max(1, sampled(sampled.length / 2))

      val merged = mutable.ArrayBuffer.empty[Part]
      val used = Array.fill(parts.length)(false)
      for (i <- parts.indices; if !used(i)) {
        used(i) = true
        var cur = parts(i)
        var j = i + 1
        val limit = math.min(parts.length, i + 1 + Lookahead)
        var bestJ = -1; var bestCommon = -1
        while (j < limit) {
          if (!used(j)) {
            val c = common(cur.sig, parts(j).sig)
            if (c >= tau && c > bestCommon &&
                cur.records.union(parts(j).records).size <= bc) {
              bestJ = j; bestCommon = c
            }
          }
          j += 1
        }
        if (bestJ >= 0) {
          val o = parts(bestJ); used(bestJ) = true
          val u = cur.records.union(o.records)
          cur = Part(cur.members ++ o.members, u, shingles(u))
          changed = true
        }
        merged += cur
      }
      parts = merged.toVector
    }

    val assignment = Array.fill(g.numVersions)(0)
    parts.zipWithIndex.foreach { case (p, pid) => p.members.foreach(assignment(_) = pid) }
    PartitionScheme(assignment.toVector).compact
  }

  /** Binary search on capacity BC for Problem 5.1, by
    * [[CostModel.cheapestWithin]] from the per-version scheme. Larger BC ⇒
    * fewer, bigger partitions ⇒ less duplication (smaller S) but higher
    * checkout cost, so a fitting BC moves the search down. When nothing
    * fits, returns the single-partition scheme.
    */
  def forBudget(g: VersionGraph, gamma: Long): PartitionScheme = {
    def sized(s: PartitionScheme) = (s, CostModel.partitionSizes(g, s))
    val fits = Bisect.fitting(g.numBipartiteEdges.toDouble / g.numVersions,
      g.numRecords.toDouble * 2, BudgetSteps, upOnFit = false)(
      bc => sized(run(g, bc.toLong)))(_._2.sum <= gamma)
    CostModel.cheapestWithin(gamma,
      Iterator(sized(PartitionScheme.perVersion(g.numVersions))) ++ fits)(identity)
      .getOrElse(PartitionScheme.single(g.numVersions))
  }
}
