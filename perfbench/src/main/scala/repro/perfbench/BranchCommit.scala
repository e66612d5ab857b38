package repro.perfbench

import java.nio.file.Path
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{VersionGraph, VersioningBenchmark}
import repro.core.model.{CvdStore, SplitByRlist}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** One collaborator's edit cycle on split-by-rlist, the model OrpheusDB
  * deploys: check out a branch head and materialize it to Parquet (the
  * §4.2 protocol), edit it with the generator's churn, commit it, and diff
  * the new version against the head. Heads rotate over the branch heads.
  */
final class BranchCommit(spark: SparkSession, t: Tracer, seed: Long) extends Workload {
  import BranchCommit._

  private var g: VersionGraph = _
  private var store: SplitByRlist = _
  private var work: Path = _
  private val refs = mutable.Map.empty[Int, Digest]
  private var heads: Array[Int] = Array.empty
  private var nextPk = 0L
  private var records = 0L
  private val commitGrowth = ArrayBuffer.empty[Double]

  def setup(dir: Path): Unit = {
    g = t.span("core.VersioningBenchmark.generate")(VersioningBenchmark.generate(config(seed)))
    val data = t.span("core.VersioningBenchmark.dataTableDF")(
      VersioningBenchmark.dataTableDF(spark, g, Attrs))
    store = new SplitByRlist(spark, dir.resolve("store"))
    work = dir.resolve("work")
    t.span("core.model.SplitByRlist.load", "load")(store.load(data, g))
  }

  def prepare(): Unit = {
    refs.clear()
    refs ++= Digest.byVersion(VersioningBenchmark.membershipDF(spark, g),
      VersioningBenchmark.dataTableDF(spark, g, Attrs), Values)
    heads = g.versions.filter(v => g.children(v.vid).isEmpty).map(_.vid).toArray
    nextPk = g.allRecords.intervals.last._2 + 1
    records = g.numRecords
  }

  /** With one warm-up cycle the first timed cycle still ran ~10% slower
    * than the next.
    */
  val warmupOps = 2

  def op(i: Int): Op = {
    val slot = i % heads.length
    val head = heads(slot)
    val coDir = work.resolve(s"checkout-$i").toString
    val (_, checkout) = Workload.measure("checkout")(
      t.span("core.model.SplitByRlist.checkout", "checkout")(
        store.checkout(head).write.parquet(coDir)))
    val checkedOut = spark.read.parquet(coDir)
    val okCheckout = Digest.of(checkedOut, Values) == refs(head)

    val edited = edit(checkedOut, i, math.max(1L, refs(head).rows / 100))
    val (wantVersion, wantDiff) = Digest.split(edited, Values, col("rid").isNull)
    val before = if (t.recording) CvdStore.du(store.dir) else 0L
    val (vid, commit) = Workload.measure("commit")(
      t.span("core.model.SplitByRlist.commit", "commit")(store.commit(edited, Seq(head))))
    if (t.recording)
      commitGrowth += (CvdStore.du(store.dir) - before).toDouble /
        (wantDiff.rows * Workload.rowBytes(Attrs))
    val (diffed, diff) = Workload.measure("diff")(
      t.span("core.model.SplitByRlist.diffVersions", "diff")(
        Digest.of(store.diffVersions(vid, head), Values)))
    // The diff shows only the rows new in `vid`; checking out the whole
    // version also catches dropped or stale carried-over rows.
    val okVersion = Digest.of(store.checkout(vid), Values) == wantVersion

    refs(vid) = wantVersion
    heads(slot) = vid
    records += wantDiff.rows
    Workload.deleteRecursively(work.resolve(s"checkout-$i"))
    Op(Vector(checkout, commit, diff), okCheckout && diffed == wantDiff && okVersion)
  }

  /** The generator's churn applied to a checked-out table: ~9% of rows
    * get a null rid and a changed attribute, and 1% of the row count is
    * appended as fresh rows. Which rows change depends on the seed and the
    * cycle.
    */
  private def edit(table: DataFrame, cycle: Int, fresh: Long): DataFrame = {
    val picked = pmod(xxhash64(col("rid"), lit(seed * 1000003L + cycle)), lit(100)) < 9
    val changed = table.where(picked)
      .withColumn("rid", lit(null).cast("long"))
      .withColumn("a1", pmod(col("a1") + 1, lit(100000L)))
    val inserted = spark.range(fresh).select(
      (lit(null).cast("long") as "rid") +: ((col("id") + nextPk) as "pk") +:
        (1 to Attrs).map(k => pmod((col("id") + nextPk) * (7919L + k), lit(100000L)) as s"a$k"): _*)
    nextPk += fresh
    table.where(!picked).unionByName(changed).unionByName(inserted)
  }

  def storageAmp: Double =
    CvdStore.du(store.dir).toDouble / (records * Workload.rowBytes(Attrs))

  def counts: Map[String, Double] = Map(
    "core.model.commit_bytes_written_per_user_byte" -> Workload.median(commitGrowth.toSeq),
    "core.model.store_files" -> Workload.fileCount(store.dir).toDouble)
}

object BranchCommit {
  /** SCI_30K's version graph (`Workloads.sciSuite(1.0)`), 10 attributes. */
  def config(seed: Long): VersioningBenchmark.Config =
    VersioningBenchmark.Config(numVersions = 50, base = 6000, updates = 540,
      inserts = 60, branches = 5, mergeEvery = 0, seed = seed)
  val Attrs = 10
  /** Every column but rid: committed rows get fresh rids, so versions are
    * compared by content.
    */
  val Values: Seq[String] = "pk" +: (1 to Attrs).map(i => s"a$i")
}
