package repro.core.partition

import org.scalacheck.{Gen, Properties}
import org.scalacheck.Prop.forAll
import repro.core.{VersionGraph, VersioningBenchmark}

/** ScalaCheck: the AGGLO and KMEANS budget searches of Problem 5.1 return
  * what the hand-written loops of [[BudgetSearchReference]] return, on
  * random SCI (tree) and CUR (merge) histories. The one deliberate
  * difference: when nothing fits γ, AGGLO returns the single partition,
  * where the old loop returned the per-version scheme.
  */
object BudgetSearchPropertySpec extends Properties("budget search") {

  private val genGraph: Gen[VersionGraph] = for {
    numVersions <- Gen.choose(1, 30)
    base <- Gen.choose(20, 400)
    updates <- Gen.choose(0, 60)
    inserts <- Gen.choose(0, 20)
    branches <- Gen.choose(0, 6)
    mergeEvery <- Gen.oneOf(0, 0, 3, 5, 9)
    seed <- Gen.choose(0L, 1000000L)
  } yield VersioningBenchmark.generate(VersioningBenchmark.Config(
    numVersions, base, updates, inserts, branches, mergeEvery, seed))

  property("Agglo.forBudget equals the reference search where it fits γ") =
    forAll(genGraph, Gen.choose(1.0, 3.0)) { (g, factor) =>
      val gamma = (factor * g.numRecords).toLong
      val ref = BudgetSearchReference.agglo(g, gamma)
      Agglo.forBudget(g, gamma) ==
        (if (CostModel.storageCost(g, ref) <= gamma) ref else PartitionScheme.single(g.numVersions))
    }

  property("KMeansPart.forBudget equals the reference search") =
    forAll(genGraph, Gen.choose(0.9, 3.0)) { (g, factor) =>
      val gamma = (factor * g.numRecords).toLong
      KMeansPart.forBudget(g, gamma) == BudgetSearchReference.kmeans(g, gamma)
    }
}
