package repro.core

import org.scalacheck.{Arbitrary, Gen, Prop, Properties}
import org.scalacheck.Prop.forAll
import repro.core.IntervalSetMeasures._

/** ScalaCheck property suite for IntervalSet: the set-algebra laws the
  * partitioners and the delta graph rely on, over arbitrary inputs.
  * (Raw ScalaCheck `Properties` — sbt runs these via its built-in
  * ScalaCheck framework.)
  */
object IntervalSetPropertySpec extends Properties("IntervalSet") {

  private val genSet: Gen[IntervalSet] = for {
    n <- Gen.choose(0, 12)
    ivs <- Gen.listOfN(n, for {
      s <- Gen.choose(0L, 200L)
      len <- Gen.choose(0L, 20L)
    } yield (s, s + len))
  } yield IntervalSet.fromIntervals(ivs)

  private implicit val arbSet: Arbitrary[IntervalSet] = Arbitrary(genSet)

  /** Lists of sets, some empty, whose members often touch or overlap: the
    * grid sets' intervals start and end on multiples of 5, so one set's
    * interval often ends right before another's starts.
    */
  private val genSets: Gen[List[IntervalSet]] = Gen.listOf(Gen.oneOf(genSet, for {
    n <- Gen.choose(0, 4)
    ivs <- Gen.listOfN(n, for {
      s <- Gen.choose(0L, 40L)
      len <- Gen.choose(1L, 3L)
    } yield (5 * s, 5 * (s + len) - 1))
  } yield IntervalSet.fromIntervals(ivs)))

  property("normalized: sorted, disjoint, non-adjacent intervals") =
    forAll { (a: IntervalSet) =>
      val ivs = a.intervals
      ivs.forall { case (s, e) => s <= e } &&
        ivs.zip(ivs.drop(1)).forall { case ((_, e1), (s2, _)) => s2 > e1 + 1 }
    }

  property("inclusion-exclusion: |A∪B| + |A∩B| = |A| + |B|") =
    forAll { (a: IntervalSet, b: IntervalSet) =>
      a.union(b).size + a.intersect(b).size == a.size + b.size
    }

  property("difference: |A\\B| = |A| − |A∩B|") =
    forAll { (a: IntervalSet, b: IntervalSet) =>
      a.diff(b).size == a.size - a.intersectSize(b)
    }

  property("intersectSize equals materialized intersection size") =
    forAll { (a: IntervalSet, b: IntervalSet) =>
      a.intersectSize(b) == a.intersect(b).size
    }

  property("symmetric difference obeys the triangle inequality") =
    forAll { (a: IntervalSet, b: IntervalSet, c: IntervalSet) =>
      a.symmetricDiffSize(c) <= a.symmetricDiffSize(b) + b.symmetricDiffSize(c)
    }

  property("union associativity") =
    forAll { (a: IntervalSet, b: IntervalSet, c: IntervalSet) =>
      a.union(b).union(c) == a.union(b.union(c))
    }

  property("intersect distributes over union (on sizes)") =
    forAll { (a: IntervalSet, b: IntervalSet, c: IntervalSet) =>
      a.intersect(b.union(c)).size ==
        IntervalSet.unionAll(Seq(a.intersect(b), a.intersect(c))).size
    }

  property("contains agrees with rank enumeration") =
    forAll { (a: IntervalSet) =>
      a.isEmpty || {
        val members = (0L until a.size).map(a.atRank)
        members.forall(a.contains) && members.distinct.size.toLong == a.size
      }
    }

  property("removeRankRange removes exactly the requested count") =
    forAll(genSet, Gen.choose(0L, 50L), Gen.choose(0L, 50L)) {
      (a: IntervalSet, from: Long, count: Long) =>
        a.isEmpty || {
          val f = math.min(from, a.size - 1)
          val c = math.min(count, a.size - f)
          a.removeRankRange(f, count).size == a.size - c
        }
    }

  property("union/diff round-trip: (A∪B)\\B = A\\B") =
    forAll { (a: IntervalSet, b: IntervalSet) =>
      a.union(b).diff(b) == a.diff(b)
    }

  property("unionAll and unionSize equal the normalized flatten of all members") =
    forAll(genSets) { (sets: List[IntervalSet]) =>
      val want = IntervalSet.fromIntervals(sets.flatMap(_.intervals))
      IntervalSet.unionAll(sets) == want && IntervalSet.unionSize(sets) == want.size
    }
}
