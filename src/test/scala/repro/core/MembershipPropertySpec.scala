package repro.core

import java.nio.file.Files
import org.apache.spark.sql.functions.col
import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll
import repro.SparkSpec

/** ScalaCheck properties of the Spark row selections built from record
  * sets: `df.where(Membership.within(s))` keeps exactly the rids
  * `s.contains`, and `Membership.route` gives each rid exactly the keys
  * of the sets holding it. Every sample runs one Spark job over the rids
  * -3 to 79, so the domain covers each set's ends and one rid past them.
  * The versioning rows `Membership.writeRlists` writes read back as the
  * sets they were written from.
  */
object MembershipPropertySpec extends Properties("Membership") {

  override def overrideParameters(p: org.scalacheck.Test.Parameters): org.scalacheck.Test.Parameters =
    p.withMinSuccessfulTests(50)

  private lazy val spark = SparkSpec.shared
  private val domain = -3L until 80L
  private def rids = spark.range(domain.head, domain.last + 1).select(col("id") as "rid")

  /** Empty, single-point, adjacent and many-interval sets: the adjacent
    * ones have intervals one rid apart, so an end off by one shows.
    */
  private val genSet: Gen[IntervalSet] = Gen.oneOf(
    Gen.const(IntervalSet.empty),
    Gen.choose(0L, 76L).map(x => IntervalSet.range(x, x)),
    for {
      n <- Gen.choose(1, 12)
      s <- Gen.choose(0L, 20L)
      len <- Gen.choose(0L, 3L)
    } yield IntervalSet.fromIntervals((0 until n).map(i => (s + i * (len + 2), s + i * (len + 2) + len))),
    for {
      n <- Gen.choose(0, 40)
      ivs <- Gen.listOfN(n, for {
        s <- Gen.choose(0L, 76L)
        len <- Gen.choose(0L, 4L)
      } yield (s, s + len))
    } yield IntervalSet.fromIntervals(ivs))

  property("df.where(within(s)) keeps exactly the rids s contains") =
    forAll(genSet) { s =>
      val got = rids.where(Membership.within(s)).collect().map(_.getLong(0)).sorted.toSeq
      val want = domain.filter(s.contains)
      Prop(got == want) :| s"$s: got ${got.take(8)}, want ${want.take(8)}"
    }

  property("route gives each rid the keys of the sets that contain it, in order") =
    forAll(Gen.choose(0, 4).flatMap(n => Gen.listOfN(n, genSet))) { sets =>
      val keyed = sets.zipWithIndex.map { case (s, i) => (7 * i + 3) -> s }
      val got = rids.select(col("rid"), Membership.route(keyed) as "keys").collect()
        .map(r => r.getLong(0) -> r.getSeq[Int](1)).toMap
      Prop(domain.forall(r => got(r) == keyed.collect { case (k, s) if s.contains(r) => k })) :|
        s"sets $keyed"
    }

  property("writeRlists rows read back as each set's rids in ascending order") =
    forAll(Gen.choose(0, 4).flatMap(n => Gen.listOfN(n, genSet))) { sets =>
      val keyed = sets.zipWithIndex.map { case (s, i) => (7 * i + 3) -> s }
      val dir = Files.createTempDirectory("rlists").resolve("versioning").toString
      Membership.writeRlists(spark, dir, keyed)
      val got = spark.read.schema(Membership.VersioningSchema).parquet(dir).collect()
        .map(r => r.getInt(0) -> r.getSeq[Long](1)).toSeq
      val inferred = spark.read.parquet(dir).schema
      (Prop(got == keyed.map { case (v, s) => v -> s.toSeq }) :| s"sets $keyed: got $got") &&
        (Prop(inferred == Membership.VersioningSchema) :| s"inferred $inferred")
    }
}
