package repro.storage

import org.scalacheck.{Gen, Properties}
import org.scalacheck.Prop.forAll
import repro.core.VersioningBenchmark

/** ScalaCheck: MP's θ search for the directed Problem 7.4 returns the same
  * solution as a reference copy of the hand-written loop it replaced, on
  * Φ = Δ and Φ ≠ Δ graphs.
  */
object MpSearchPropertySpec extends Properties("MP search") {

  private def genGraph(mode: DeltaMode): Gen[DeltaGraph] = for {
    numVersions <- Gen.choose(1, 25)
    base <- Gen.choose(20, 400)
    updates <- Gen.choose(0, 80)
    inserts <- Gen.choose(0, 20)
    branches <- Gen.choose(0, 6)
    mergeEvery <- Gen.oneOf(0, 0, 4, 7)
    seed <- Gen.choose(0L, 1000000L)
  } yield DeltaGraph.fromRecordSets(VersioningBenchmark.generate(VersioningBenchmark.Config(
    numVersions, base, updates, inserts, branches, mergeEvery, seed)).versions.map(_.records),
    mode)

  /** Bisects θ over 30 probes, returning MP at the upper end when nothing fits. */
  private def referenceSearch(g: DeltaGraph, beta: Double): StorageSolution = {
    val lo0 = (1 to g.n).map(j => g.phi(0)(j)).max
    val hi0 = Spanning.primMST(g).maxRecreation(g) + lo0
    var lo = lo0; var hi = math.max(hi0, lo0)
    var best = ModifiedPrim.run(g, hi)
    for (_ <- 0 until 30) {
      val mid = (lo + hi) / 2
      val sol = ModifiedPrim.run(g, mid)
      if (sol.storageCost(g) <= beta) { best = sol; hi = mid }
      else lo = mid
    }
    best
  }

  for (mode <- Seq(DeltaMode.DirectedEq, DeltaMode.DirectedNeq))
    property(s"minMaxRecreationUnderBudget equals the reference search ($mode)") =
      forAll(genGraph(mode), Gen.choose(0.9, 3.0)) { (g, factor) =>
        val beta = factor * Problems.minStorage(g).storageCost(g)
        ModifiedPrim.minMaxRecreationUnderBudget(g, beta) == referenceSearch(g, beta)
      }
}
