package repro.storage

import org.scalacheck.{Gen, Properties}
import org.scalacheck.Prop.forAll
import repro.core.VersioningBenchmark

/** ScalaCheck: the undirected α searches of Problems 7.4/7.6, which build
  * LAST's MST and SPT once per search, return the same solution as the
  * same binary searches calling the public `Last.run` per α.
  */
object LastSearchPropertySpec extends Properties("LAST search") {

  private val genGraph: Gen[DeltaGraph] = for {
    numVersions <- Gen.choose(1, 30)
    base <- Gen.choose(20, 400)
    updates <- Gen.choose(0, 80)
    inserts <- Gen.choose(0, 20)
    branches <- Gen.choose(0, 6)
    mergeEvery <- Gen.oneOf(0, 0, 4, 7)
    seed <- Gen.choose(0L, 1000000L)
  } yield DeltaGraph.fromRecordSets(VersioningBenchmark.generate(VersioningBenchmark.Config(
    numVersions, base, updates, inserts, branches, mergeEvery, seed)).versions.map(_.records),
    DeltaMode.Undirected)

  private def budgetSearch(g: DeltaGraph, beta: Double): StorageSolution = {
    var lo = 1.000001; var hi = 64.0
    var best = Last.run(g, hi)
    for (_ <- 0 until 40) {
      val mid = (lo + hi) / 2
      val sol = Last.run(g, mid)
      if (sol.storageCost(g) <= beta) { best = sol; hi = mid }
      else lo = mid
    }
    best
  }

  private def thresholdSearch(g: DeltaGraph, theta: Double): StorageSolution = {
    var lo = 1.000001; var hi = 64.0
    var best: Option[StorageSolution] = None
    for (_ <- 0 until 40) {
      val mid = (lo + hi) / 2
      val sol = Last.run(g, mid)
      if (sol.maxRecreation(g) <= theta) { best = Some(sol); lo = mid }
      else hi = mid
    }
    best.getOrElse(Last.run(g, 1.000001))
  }

  property("minMaxRecreation equals a search over Last.run") =
    forAll(genGraph, Gen.choose(1.0, 3.0)) { (g, factor) =>
      val beta = factor * Spanning.primMST(g).storageCost(g)
      Problems.minMaxRecreation(g, beta) == budgetSearch(g, beta)
    }

  property("minStorageMaxRecreation equals a search over Last.run") =
    forAll(genGraph, Gen.choose(0.5, 3.0)) { (g, factor) =>
      val theta = factor * (1 to g.n).map(g.phi(0)(_)).max
      Problems.minStorageMaxRecreation(g, theta) == thresholdSearch(g, theta)
    }
}
