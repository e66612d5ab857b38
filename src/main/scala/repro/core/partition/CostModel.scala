package repro.core.partition

import repro.core.{IntervalSet, VersionGraph}

/** An assignment of every version to exactly one partition (§5.1): each
  * version lives in one partition; records may be duplicated across
  * partitions.
  *
  * @param assignment partition id per vid (dense vids, pids 0-based)
  */
final case class PartitionScheme(assignment: Vector[Int]) {
  require(assignment.isEmpty || assignment.min >= 0)

  def numVersions: Int = assignment.length
  lazy val numPartitions: Int = if (assignment.isEmpty) 0 else assignment.max + 1

  /** Members of each partition, by pid. */
  lazy val versionsOf: Vector[Vector[Int]] = {
    val acc = Vector.fill(numPartitions)(Vector.newBuilder[Int])
    assignment.zipWithIndex.foreach { case (p, v) => acc(p) += v }
    acc.map(_.result())
  }

  def pidOf(vid: Int): Int = assignment(vid)

  /** Renumber pids densely (drops empty partitions). */
  def compact: PartitionScheme = {
    val used = assignment.distinct.sorted
    val remap = used.zipWithIndex.toMap
    PartitionScheme(assignment.map(remap))
  }
}

object PartitionScheme {
  /** All versions in a single partition (min storage; Observation 5.2). */
  def single(n: Int): PartitionScheme = PartitionScheme(Vector.fill(n)(0))

  /** Each version its own partition (min checkout; Observation 5.1). */
  def perVersion(n: Int): PartitionScheme = PartitionScheme((0 until n).toVector)
}

/** Exact storage/checkout cost model of §5.1:
  * S = Σ_k |R_k| and C_avg = Σ_k |V_k||R_k| / n, with |R_k| the exact
  * deduplicated record count of partition k (IntervalSet unions).
  */
object CostModel {

  /** Problem 5.1's one selection rule, for `LyreSplit`, `Agglo` and
    * `KMeansPart` `.forBudget`: the first scheme of least C_avg among the
    * search's start scheme and its probes whose S fits `gamma`. `None` when
    * none fits; the caller then takes the single partition (S = |R|, the
    * least of any scheme). Each candidate comes with its sizes |R_k|.
    */
  def cheapestWithin[A](gamma: Long, candidates: Iterator[(A, Vector[Long])])(
      scheme: A => PartitionScheme): Option[A] =
    candidates.filter(_._2.sum <= gamma)
      .minByOption { case (a, sizes) => avgCheckoutCost(scheme(a), sizes) }.map(_._1)

  /** Record set of one partition: union of member versions' records. */
  def partitionRecords(g: VersionGraph, members: Seq[Int]): IntervalSet =
    IntervalSet.unionAll(members.map(v => g.versions(v).records))

  /** |R_k| per partition, counted without building R_k. */
  def partitionSizes(g: VersionGraph, scheme: PartitionScheme): Vector[Long] =
    scheme.versionsOf.map(ms => IntervalSet.unionSize(ms.map(v => g.versions(v).records)))

  /** Total storage cost S = Σ_k |R_k| (in records; §5.1 Eq 5.1). */
  def storageCost(g: VersionGraph, scheme: PartitionScheme): Long =
    partitionSizes(g, scheme).sum

  /** Average checkout cost C_avg = Σ_k |V_k||R_k| / n (Eq 5.2). */
  def avgCheckoutCost(g: VersionGraph, scheme: PartitionScheme): Double =
    avgCheckoutCost(scheme, partitionSizes(g, scheme))

  /** C_avg from already computed partition sizes |R_k|. */
  def avgCheckoutCost(scheme: PartitionScheme, sizes: Vector[Long]): Double = {
    val num = scheme.versionsOf.zip(sizes).map { case (ms, r) => ms.length.toLong * r }.sum
    num.toDouble / scheme.numVersions
  }

  /** Checkout cost of a single version C_i = |R_k| where v_i ∈ P_k. */
  def checkoutCost(g: VersionGraph, scheme: PartitionScheme, vid: Int): Long =
    partitionRecords(g, scheme.versionsOf(scheme.pidOf(vid))).size

  /** Weighted checkout cost C_w = Σ f_i C_i / Σ f_i (§5.3.2). */
  def weightedCheckoutCost(g: VersionGraph, scheme: PartitionScheme,
                           freq: Vector[Long]): Double = {
    val sizes = partitionSizes(g, scheme)
    val num = g.versions.iterator
      .map(v => freq(v.vid) * sizes(scheme.pidOf(v.vid))).sum
    num.toDouble / freq.sum
  }

  /** Lower bound on C_avg: |E|/|V| (Observation 5.1). */
  def minCheckoutCost(g: VersionGraph): Double =
    g.numBipartiteEdges.toDouble / g.numVersions
}
