package repro.storage

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{IntervalSet, Membership}

/** Chapter 7: the storage-recreation graph over a collection of versions.
  *
  * Node 0 is the dummy root V0; versions are nodes 1..n. `delta(i)(j)` is
  * the storage cost of keeping version j as a delta from i (for i = 0:
  * materializing j); `phi(i)(j)` is the recreation cost of applying that
  * delta. Costs are in records, matching the thesis's setup where delta
  * size is the number of differing records.
  *
  * Three scenarios (Table 7.1):
  *  - [[DeltaMode.Undirected]]   symmetric deltas, Φ = Δ (e.g. XOR/2-way diff)
  *  - [[DeltaMode.DirectedEq]]   one-way deltas, Φ = Δ (inserts stored fully,
  *                               deletes as id lists at ε = 0.1 record-cost)
  *  - [[DeltaMode.DirectedNeq]]  Δ as DirectedEq but Φ counts the full
  *                               symmetric difference (applying a delta reads
  *                               both its insert and delete lists)
  */
final class DeltaGraph(
    val n: Int,
    val delta: Array[Array[Double]],
    val phi: Array[Array[Double]],
    val directed: Boolean,
) {
  require(delta.length == n + 1 && phi.length == n + 1)

  /** Materialization storage cost of version j (edge 0→j). */
  def mat(j: Int): Double = delta(0)(j)

  /** Symmetrized storage weight for undirected algorithms. */
  def sym(i: Int, j: Int): Double = math.min(delta(i)(j), delta(j)(i))
}

sealed trait DeltaMode
object DeltaMode {
  case object Undirected extends DeltaMode
  case object DirectedEq extends DeltaMode
  case object DirectedNeq extends DeltaMode

  /** Record-id cost of a tombstone relative to a full record. */
  val TombstoneCost = 0.1
}

object DeltaGraph {

  /** Build the complete graph from per-version record sets (driver side). */
  def fromRecordSets(sets: Vector[IntervalSet], mode: DeltaMode): DeltaGraph = {
    val n = sets.length
    val sizes = sets.map(_.size.toDouble)
    val inter = Array.ofDim[Double](n, n)
    for (i <- 0 until n; j <- i + 1 until n) {
      val x = sets(i).intersectSize(sets(j)).toDouble
      inter(i)(j) = x; inter(j)(i) = x
    }
    build(n, sizes, (i, j) => inter(i)(j), mode)
  }

  /** Build the graph from a (vid, rid) membership DataFrame with the
    * distributed self-join of [[Membership.overlaps]] — the Spark path for
    * large collections (DESIGN.md §4). vids must be dense 0..n-1.
    */
  def fromMembership(spark: SparkSession, membership: DataFrame, n: Int,
                     mode: DeltaMode): DeltaGraph = {
    val (overlaps, sizes) = Membership.overlaps(membership)
    val inter = Array.ofDim[Double](n, n)
    for (((i, j), c) <- overlaps) { inter(i)(j) = c.toDouble; inter(j)(i) = c.toDouble }
    build(n, Vector.tabulate(n)(v => sizes.getOrElse(v, 0L).toDouble), (i, j) => inter(i)(j), mode)
  }

  private def build(n: Int, sizes: Vector[Double],
                    inter: (Int, Int) => Double, mode: DeltaMode): DeltaGraph = {
    val delta = Array.fill(n + 1, n + 1)(Double.PositiveInfinity)
    val phi = Array.fill(n + 1, n + 1)(Double.PositiveInfinity)
    for (j <- 1 to n) {
      delta(0)(j) = sizes(j - 1); phi(0)(j) = sizes(j - 1)
      delta(j)(j) = 0; phi(j)(j) = 0
    }
    for (i <- 1 to n; j <- 1 to n; if i != j) {
      val common = inter(i - 1, j - 1)
      val onlyI = sizes(i - 1) - common    // in i, not in j (deletes for i→j)
      val onlyJ = sizes(j - 1) - common    // in j, not in i (inserts for i→j)
      mode match {
        case DeltaMode.Undirected =>
          delta(i)(j) = onlyI + onlyJ
          phi(i)(j) = onlyI + onlyJ
        case DeltaMode.DirectedEq =>
          delta(i)(j) = onlyJ + DeltaMode.TombstoneCost * onlyI
          phi(i)(j) = delta(i)(j)
        case DeltaMode.DirectedNeq =>
          delta(i)(j) = onlyJ + DeltaMode.TombstoneCost * onlyI
          phi(i)(j) = onlyI + onlyJ
      }
    }
    val directed = mode != DeltaMode.Undirected
    new DeltaGraph(n, delta, phi, directed)
  }
}
