package repro.core.partition

import org.scalacheck.{Gen, Properties}
import org.scalacheck.Prop.forAll
import repro.core.{VersionGraph, VersioningBenchmark}

/** ScalaCheck: the one-pass LyreSplit returns exactly what the `Set`-based
  * [[LyreSplitReference]] returns (scheme and recursion levels) on random
  * SCI (tree) and CUR (merge) histories, for δ over (0, 1].
  */
object LyreSplitEquivalenceSpec extends Properties("LyreSplit") {

  private val genGraph: Gen[VersionGraph] = for {
    numVersions <- Gen.choose(1, 60)
    base <- Gen.choose(20, 400)
    updates <- Gen.choose(0, 60)
    inserts <- Gen.choose(0, 20)
    branches <- Gen.choose(0, 8)
    mergeEvery <- Gen.oneOf(0, 0, 3, 5, 9)
    seed <- Gen.choose(0L, 1000000L)
  } yield VersioningBenchmark.generate(VersioningBenchmark.Config(
    numVersions, base, updates, inserts, branches, mergeEvery, seed))

  private val genDelta: Gen[Double] =
    Gen.frequency(9 -> Gen.choose(1e-4, 1.0), 1 -> Gen.const(1.0))

  property("run equals the Set-based reference") =
    forAll(genGraph, genDelta) { (g, delta) =>
      LyreSplit.run(g, delta) == LyreSplitReference.run(g, delta)
    }

  property("runWithSchema equals the Set-based reference") =
    forAll(genGraph, genDelta, Gen.choose(0L, 1000L)) { (g, delta, seed) =>
      val rng = new scala.util.Random(seed)
      val attrs = g.versions.map(_ => (1 to 10).filter(_ => rng.nextInt(4) > 0).toSet)
      LyreSplit.runWithSchema(g, attrs, delta) == LyreSplitReference.runWithSchema(g, attrs, delta)
    }

  property("forBudget equals the reference search") =
    forAll(genGraph, Gen.choose(1.0, 3.0)) { (g, factor) =>
      val gamma = (factor * g.numRecords).toLong
      LyreSplit.forBudget(g, gamma) == LyreSplitReference.forBudget(g, gamma)
    }
}
