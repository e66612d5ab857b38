package repro.core.model

import java.nio.file.Files
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}
import repro.core.{IntervalSet, Version, VersionGraph, VersioningBenchmark}
import repro.core.partition.{LyreSplit, Migration, PartitionScheme, PartitionedStore}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

/** Model-based store tests: seeded random operations (edits, fresh rows,
  * two-parent merges, parentless commits and LyreSplit migrations) run on
  * the five Ch.4 layouts and on a two-partition [[PartitionedStore]], and
  * every result is compared with [[StoreModelSpec.Reference]], a pure
  * in-memory model. Each commit's checkout and diffs are checked when it
  * is made, every version of every layout at the end of a seed, and two
  * sampled versions per layout through `Oracle`. Inputs are valid: a kept
  * rid carries the values stored for it.
  */
class StoreModelSpec extends AnyFunSuite with SparkSpec {
  import StoreModelSpec._

  private val schema = StructType(Seq("rid", "pk", "a1", "a2").map(StructField(_, LongType)))

  private def frame(rows: Seq[Rec]): DataFrame =
    spark.createDataFrame(rows.map(r => Row(r.rid.map(Long.box).orNull, r.pk, r.a1, r.a2)).asJava, schema)

  private def collected(df: DataFrame): Vector[Rec] =
    df.select("rid", "pk", "a1", "a2").collect().toVector
      .map(r => Rec(Some(r.getLong(0)), r.getLong(1), r.getLong(2), r.getLong(3))).sorted

  /** Each check's rows, all collected in one Spark action, equal its
    * expected rows.
    */
  private def assertRows(what: String, checks: (String, DataFrame, Vector[Rec])*): Unit = {
    val got = checks.zipWithIndex
      .map { case ((_, df, _), i) => df.select(lit(i) as "check", col("rid"), col("pk"), col("a1"), col("a2")) }
      .reduce(_ unionByName _).collect().toVector
      .groupMap(_.getInt(0))(r => Rec(Some(r.getLong(1)), r.getLong(2), r.getLong(3), r.getLong(4)))
    for (((name, _, want), i) <- checks.zipWithIndex) {
      val rows = got.getOrElse(i, Vector.empty).sorted
      if (rows != want.sorted)
        fail(s"$what, $name: ${rows.diff(want).take(3)} not expected, ${want.diff(rows).take(3)} missing")
    }
  }

  /** Every version of `s` equals the reference's. */
  private def assertEveryVersion(s: CvdStore, ref: Reference, what: String): Unit =
    assertRows(what, (0 until ref.numVersions).map(v => (s"v$v", s.checkout(v), ref.rows(v))): _*)

  /** The edited copy of `rows`: about a tenth changed (rid nulled, a1
    * redrawn), a twentieth dropped, and `fresh` new rows, some of them
    * repeated and some reusing a pk.
    */
  private def edited(rng: Random, rows: Vector[Rec], fresh: Int, ref: Reference): Vector[Rec] = {
    val out = Vector.newBuilder[Rec]
    for (r <- rows) rng.nextInt(20) match {
      case 0 | 1 => out += r.copy(rid = None, a1 = rng.nextInt(1000).toLong)
      case 2 => ()
      case _ => out += r
    }
    out ++= freshRows(rng, fresh, ref, rows)
    rng.shuffle(out.result())
  }

  private def freshRows(rng: Random, n: Int, ref: Reference, like: Vector[Rec]): Vector[Rec] =
    Vector.fill(n) {
      val pk = if (like.nonEmpty && rng.nextInt(4) == 0) like(rng.nextInt(like.length)).pk else ref.newPk()
      Rec(None, pk, rng.nextInt(50).toLong, rng.nextInt(3).toLong)
    }.flatMap(r => if (rng.nextInt(5) == 0) Vector(r, r) else Vector(r))

  for (seed <- 1 to 6) test(s"seed $seed: every layout agrees with the reference over 10 random operations") {
    val rng = new Random(seed)
    val graph = VersioningBenchmark.sci(numVersions = 6, base = 60, updates = 6, inserts = 3, branches = 2,
      seed = seed.toLong)
    val data = VersioningBenchmark.dataTableDF(spark, graph, nAttrs = 2).localCheckpoint()
    val ref = new Reference(graph, collected(data))
    val base = Files.createTempDirectory(s"storemodel-$seed")
    val partitioned = new PartitionedStore(spark, base.resolve("parts"))
    val stores: Seq[CvdStore] = Seq(
      new ATablePerVersion(spark, base.resolve("atpv")),
      new CombinedTable(spark, base.resolve("comb")),
      new SplitByVlist(spark, base.resolve("svl")),
      new SplitByRlist(spark, base.resolve("srl")),
      new DeltaBased(spark, base.resolve("delta")),
      partitioned)
    val names = stores.map(s => if (s eq partitioned) "partitioned" else s.name)
    stores.filterNot(_ eq partitioned).foreach(_.load(data, graph))
    partitioned.load(data, graph, PartitionScheme(graph.versions.map(v => if (2 * v.vid < graph.numVersions) 0 else 1)))

    // Every kind of operation once, then five drawn at random, in random order.
    val kinds = rng.shuffle(Seq(Edit, Insert, Merge, Root, Migrate) ++ Seq.fill(5)(AllKinds(rng.nextInt(AllKinds.length))))
    for ((kind, step) <- kinds.zipWithIndex) {
      val at = s"seed $seed step $step ($kind)"
      val n = ref.numVersions
      kind match {
        case Migrate =>
          val g = ref.graph
          val target = LyreSplit.run(g, 0.3 + 0.6 * rng.nextDouble()).scheme
          partitioned.migrate(target, Migration.plan(g, partitioned.currentScheme, target))
          assert(partitioned.currentScheme == target)
          assertEveryVersion(partitioned, ref, s"$at: partitioned")
        case _ =>
          val (table, parents) = kind match {
            case Edit => val p = rng.nextInt(n); (edited(rng, ref.rows(p), rng.nextInt(6), ref), Seq(p))
            case Insert => val p = rng.nextInt(n); (ref.rows(p) ++ freshRows(rng, 1 + rng.nextInt(6), ref, ref.rows(p)), Seq(p))
            case Merge =>
              val Seq(a, b) = rng.shuffle((0 until n).toVector).take(2)
              val inA = ref.rows(a).flatMap(_.rid).toSet
              (edited(rng, ref.rows(a) ++ ref.rows(b).filterNot(r => inA(r.rid.get)), rng.nextInt(4), ref), Seq(a, b))
            case _ => (freshRows(rng, 1 + rng.nextInt(8), ref, Vector.empty), Seq.empty)
          }
          val vid = ref.commit(table, parents)
          val df = frame(table)
          for ((s, name) <- stores.zip(names)) {
            assert(s.commit(df, parents) == vid, s"$at: $name vid")
            assert(s.parents(vid) == parents && s.records(vid) == ref.records(vid), s"$at: $name metadata")
            val other = parents.headOption.getOrElse(0)
            assertRows(s"$at: $name",
              (s"checkout v$vid", s.checkout(vid), ref.rows(vid)),
              (s"diff(v$vid, v$other)", s.diffVersions(vid, other), ref.diff(vid, other)),
              (s"diff(v$other, v$vid)", s.diffVersions(other, vid), ref.diff(other, vid)))
          }
      }
    }

    val n = ref.numVersions
    for ((s, name) <- stores.zip(names)) assertEveryVersion(s, ref, s"seed $seed end: $name")
    val sampled = rng.shuffle((0 until n).toVector).take(2)
    val refTable = spark.createDataFrame(
      sampled.flatMap(v => ref.rows(v).map(r => Row(v.toString, r.rid.get.toString, r.pk.toString,
        r.a1.toString, r.a2.toString))).asJava,
      StructType(Seq("vid", "rid", "pk", "a1", "a2").map(StructField(_, StringType))))
    for (s <- stores; v <- sampled)
      Oracle.assertEquivalent(
        s.checkout(v).select(Seq("rid", "pk", "a1", "a2").map(c => col(c).cast("string") as c): _*),
        s"SELECT rid, pk, a1, a2 FROM ref WHERE vid = '$v'", "ref" -> refTable)
  }
}

object StoreModelSpec {
  /** A row of a committed table: `rid` is `None` on a fresh row. */
  final case class Rec(rid: Option[Long], pk: Long, a1: Long, a2: Long)

  implicit val recOrdering: Ordering[Rec] = Ordering.by(r => (r.rid, r.pk, r.a1, r.a2))

  sealed trait Kind
  case object Edit extends Kind
  case object Insert extends Kind
  case object Merge extends Kind
  case object Root extends Kind
  case object Migrate extends Kind
  val AllKinds: Vector[Kind] = Vector(Edit, Insert, Merge, Root, Migrate)

  /** The store as a pure function of its commits: each version's rows. A
    * commit keeps its rid-carrying rows and numbers its fresh rows from
    * the next unused rid in (pk, a1, a2) order, as `CvdStore.commit` does.
    */
  final class Reference(loaded: VersionGraph, data: Vector[Rec]) {
    private val byRid = data.map(r => r.rid.get -> r).toMap
    private val versions = mutable.ArrayBuffer.from(loaded.versions)
    private val rowsOf = mutable.ArrayBuffer.from(loaded.versions.map(v => v.records.toSeq.toVector.map(byRid)))
    private var nextRid = loaded.allRecords.intervals.last._2 + 1
    private var nextPk = data.map(_.pk).max + 1

    def numVersions: Int = versions.length
    def rows(vid: Int): Vector[Rec] = rowsOf(vid)
    def records(vid: Int): IntervalSet = versions(vid).records
    def graph: VersionGraph = VersionGraph(versions.toVector)
    def newPk(): Long = { nextPk += 1; nextPk - 1 }

    /** The rows of `a` whose rid is not in `b`. */
    def diff(a: Int, b: Int): Vector[Rec] = rowsOf(a).filterNot(r => records(b).contains(r.rid.get))

    def commit(table: Vector[Rec], parents: Seq[Int]): Int = {
      val (kept, fresh) = table.partition(_.rid.isDefined)
      val numbered = fresh.sortBy(r => (r.pk, r.a1, r.a2)).zipWithIndex
        .map { case (r, i) => r.copy(rid = Some(nextRid + i)) }
      nextRid += fresh.length
      val all = kept ++ numbered
      val vid = versions.length
      versions += Version(vid, parents.toVector, IntervalSet.fromSeq(all.flatMap(_.rid)), vid.toLong)
      rowsOf += all
      vid
    }
  }
}
