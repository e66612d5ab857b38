package repro.core.partition

import repro.core.VersionGraph

/** Reference budget searches for the NScale baselines: the hand-written
  * loops that `Agglo.forBudget` and `KMeansPart.forBudget` ran before they
  * shared [[CostModel.cheapestWithin]] (and, for AGGLO, `Bisect`). Tests
  * compare the shared search against them on random histories.
  */
object BudgetSearchReference {

  /** Bisects capacity BC over 10 probes, starting from the per-version
    * scheme, which it also returns when nothing fits.
    */
  def agglo(g: VersionGraph, gamma: Long): PartitionScheme = {
    var lo = g.numBipartiteEdges.toDouble / g.numVersions
    var hi = g.numRecords.toDouble * 2
    var best = PartitionScheme.perVersion(g.numVersions)
    var bestC = CostModel.avgCheckoutCost(g, best)
    var bestFeasible = CostModel.storageCost(g, best) <= gamma
    for (_ <- 0 until 10) {
      val mid = (lo + hi) / 2
      val s = Agglo.run(g, mid.toLong)
      if (CostModel.storageCost(g, s) <= gamma) {
        val c = CostModel.avgCheckoutCost(g, s)
        if (!bestFeasible || c < bestC) { best = s; bestC = c; bestFeasible = true }
        hi = mid
      } else {
        lo = mid
      }
    }
    best
  }

  /** Searches K over 6 integer probes, starting from the single partition. */
  def kmeans(g: VersionGraph, gamma: Long): PartitionScheme = {
    var lo = 1
    var hi = g.numVersions
    var best = PartitionScheme.single(g.numVersions)
    var bestC = CostModel.avgCheckoutCost(g, best)
    var bestFeasible = CostModel.storageCost(g, best) <= gamma
    for (_ <- 0 until 6) {
      val mid = (lo + hi) / 2
      val s = KMeansPart.run(g, math.max(1, mid))
      if (CostModel.storageCost(g, s) <= gamma) {
        val c = CostModel.avgCheckoutCost(g, s)
        if (!bestFeasible || c < bestC) { best = s; bestC = c; bestFeasible = true }
        lo = mid + 1
      } else {
        hi = mid - 1
      }
    }
    best
  }
}
