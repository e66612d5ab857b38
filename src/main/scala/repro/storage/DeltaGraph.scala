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

  /** Build the complete graph from per-version record sets (driver side):
    * version v is node v + 1.
    */
  def fromRecordSets(sets: Vector[IntervalSet], mode: DeltaMode): DeltaGraph = {
    val n = sets.length
    val sizes = sets.map(_.size.toDouble)
    val delta = Array.fill(n + 1, n + 1)(Double.PositiveInfinity)
    val phi = Array.fill(n + 1, n + 1)(Double.PositiveInfinity)
    for (j <- 1 to n) {
      delta(0)(j) = sizes(j - 1); phi(0)(j) = sizes(j - 1)
      delta(j)(j) = 0; phi(j)(j) = 0
    }
    def edge(i: Int, j: Int, common: Double): Unit = {
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
    for (i <- 1 to n; j <- i + 1 to n) {
      val common = sets(i - 1).intersectSize(sets(j - 1)).toDouble
      edge(i, j, common); edge(j, i, common)
    }
    new DeltaGraph(n, delta, phi, directed = mode != DeltaMode.Undirected)
  }

  /** Build the graph from a (vid, rid) membership DataFrame over the record
    * sets [[Membership.recordSets]] recovers. A vid in 0..n-1 with no
    * record is an empty version; a vid outside it is rejected with an
    * `IllegalArgumentException`.
    */
  def fromMembership(spark: SparkSession, membership: DataFrame, n: Int,
                     mode: DeltaMode): DeltaGraph = {
    val sets = Membership.recordSets(membership)
    val outside = sets.keys.filter(v => v < 0 || v >= n).toSeq.sorted
    require(outside.isEmpty, s"membership vid(s) ${outside.mkString(", ")} outside 0..${n - 1}")
    fromRecordSets(Vector.tabulate(n)(sets.getOrElse(_, IntervalSet.empty)), mode)
  }
}
