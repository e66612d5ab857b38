package repro.core.partition

import java.nio.file.{Files, Path}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{IntervalSet, Membership, VersionGraph}
import repro.core.model.CvdStore

/** The split-by-rlist data model (§4.3, the one OrpheusDB deploys),
  * sharded by a [[PartitionScheme]] (Chapter 5). With every version in one
  * partition it is the unpartitioned model (Observation 5.2), which is
  * what [[repro.core.model.SplitByRlist]] constructs.
  *
  * Each partition `part-<pid>` holds a data table (rid, pk, a*) with
  * exactly the union of its member versions' records, and a versioning
  * table (vid, rlist ARRAY<BIGINT>) written from the driver's record sets
  * by [[Membership.rlists]]. Checkout and diff read one partition:
  * a checkout looks up the version's versioning row, unnests the rlist and
  * hash-joins the partition's data table — the whole point of the
  * partition optimizer is that this table holds |R_k| ≤ |R| rows.
  *
  * A commit joins the partition of the parent sharing the most records
  * with it and appends one versioning row plus the net-new records — and,
  * for a merge across partitions, the inherited records that partition
  * lacks. `migrate` builds every new partition from the old partitions'
  * files, so the store keeps no other copy of the data.
  */
class PartitionedStore(spark: SparkSession, dir: Path) extends CvdStore(spark, dir) {
  override def name: String = "split-by-rlist"

  private var scheme = PartitionScheme(Vector.empty)
  private def partDir(pid: Int) = dir.resolve(s"part-$pid")
  private def tablePath(pid: Int, table: String) = partDir(pid).resolve(table).toString
  private def dataOf(pid: Int) = read(tablePath(pid, "data"), recordSchema)
  private def versioningOf(pid: Int) = read(tablePath(pid, "versioning"), Membership.VersioningSchema)

  def currentScheme: PartitionScheme = scheme

  /** Records of the versions `members`: a partition's data table. */
  private def partitionRecords(members: Seq[Int]): IntervalSet =
    IntervalSet.unionAll(members.map(recordsOf))

  /** Bulk-load the CVD unpartitioned. */
  override def load(data: DataFrame, graph: VersionGraph): Unit =
    load(data, graph, PartitionScheme.single(graph.numVersions))

  /** Bulk-load the CVD under the given partitioning scheme. */
  def load(data: DataFrame, g: VersionGraph, s: PartitionScheme): Unit = {
    require(s.numVersions == g.numVersions)
    registerGraph(data, g); scheme = s
    for (pid <- 0 until s.numPartitions) {
      val members = s.versionsOf(pid)
      restrict(data, g.allRecords, partitionRecords(members))
        .write.mode("overwrite").parquet(tablePath(pid, "data"))
      writeVersioning(members, tablePath(pid, "versioning"))
    }
  }

  /** The rows of `rows`, which hold exactly the records `all`, whose rid is
    * in `rids`: a semi-join, or `rows` itself when that is all of them.
    * Skipping the semi-join saves its broadcast job: with it, generating and
    * loading an unpartitioned 35K-record store took ~16% more CPU on a
    * 4-core host.
    */
  private def restrict(rows: DataFrame, all: IntervalSet, rids: IntervalSet): DataFrame =
    if (rids == all) rows else rows.join(Membership.ridsDF(spark, rids), Seq("rid"), "left_semi")

  /** The (vid, rlist) versioning table of the `members` versions. */
  private def writeVersioning(members: Seq[Int], path: String): Unit =
    Membership.rlists(spark, members.map(v => v -> recordsOf(v))).write.mode("overwrite").parquet(path)

  override def checkout(vid: Int): DataFrame = {
    val pid = scheme.pidOf(vid)
    val rids = versioningOf(pid).where(col("vid") === vid).select(explode(col("rlist")) as "rid")
    val df = dataOf(pid).join(rids, Seq("rid"))
    df.select("rid", attrCols(df): _*)
  }

  /** Reads the rows straight from the version's partition data table: no
    * versioning lookup.
    */
  override protected def rowsOf(vid: Int, rids: IntervalSet): DataFrame = {
    val df = dataOf(scheme.pidOf(vid)).join(Membership.ridsDF(spark, rids), Seq("rid"), "left_semi")
    df.select("rid", attrCols(df): _*)
  }

  override protected def write(vid: Int, parents: Seq[Int], c: CvdStore.Commit): Unit = {
    val pid = closestParent(parents, c.records).map(scheme.pidOf).getOrElse(0)
    Membership.rlists(spark, Seq(vid -> c.records)).write.mode("append").parquet(tablePath(pid, "versioning"))
    c.fresh.write.mode("append").parquet(tablePath(pid, "data"))
    val inherited = c.records.intersect(IntervalSet.unionAll(parents.map(recordsOf)))
    val lacking = inherited.diff(scheme.versionsOf.lift(pid).fold(IntervalSet.empty)(partitionRecords))
    if (!lacking.isEmpty)
      restrict(c.table, c.records, lacking).write.mode("append").parquet(tablePath(pid, "data"))
    scheme = PartitionScheme(scheme.assignment :+ pid)
  }

  /** Per-partition on-disk sizes in bytes. */
  def partitionBytes: Vector[Long] =
    (0 until scheme.numPartitions).toVector.map(p => CvdStore.du(partDir(p)))

  /** The deduplicated data table (rid, pk, a*): the partitions' union
    * (the table [[repro.core.model.VersionSql]] queries).
    */
  def data: DataFrame =
    (0 until scheme.numPartitions).map(dataOf).reduce(_ unionByName _).dropDuplicates("rid")

  /** Every version's rows tagged with its vid: (vid, rid, pk, a*). */
  def withVid(): DataFrame =
    (0 until scheme.numPartitions).map { pid =>
      versioningOf(pid).select(col("vid"), explode(col("rlist")) as "rid").join(dataOf(pid), Seq("rid"))
    }.reduce(_ unionByName _)

  /** Execute a migration to `newScheme` following `plan`; returns wall
    * seconds spent rewriting partition data.
    *
    * Each new partition is built from old partition files only: it keeps
    * what its mapped old partition holds (§5.4's delete), then takes each
    * record still missing from the first old partition that holds it
    * (the inserts). The driver splits the record set with IntervalSet
    * algebra, so each row is read once and no anti-join runs.
    */
  def migrate(newScheme: PartitionScheme, plan: Migration.Plan): Double = {
    require(newScheme.numVersions == scheme.numVersions)
    val t0 = System.nanoTime()
    val old = scheme.versionsOf.map(partitionRecords)
    val oldData = old.indices.map(dataOf)
    val tmp = dir.resolve("migrating")
    CvdStore.deleteRecursively(tmp)
    Files.createDirectories(tmp)
    for (a <- plan.assignments) {
      val members = newScheme.versionsOf(a.newPid)
      var missing = partitionRecords(members)
      val sources = a.fromOldPid.toSeq ++ old.indices.filterNot(a.fromOldPid.contains)
      val parts = sources.flatMap { pid =>
        val take = missing.intersect(old(pid))
        missing = missing.diff(take)
        Option.when(!take.isEmpty)(restrict(oldData(pid), old(pid), take))
      }
      val out = tmp.resolve(s"part-${a.newPid}")
      parts.reduceOption(_ unionByName _).getOrElse(oldData(sources.head).where(lit(false)))
        .write.mode("overwrite").parquet(out.resolve("data").toString)
      writeVersioning(members, out.resolve("versioning").toString)
    }
    // Swap in the new partitions.
    for (p <- 0 until scheme.numPartitions) CvdStore.deleteRecursively(partDir(p))
    for (a <- plan.assignments) Files.move(tmp.resolve(s"part-${a.newPid}"), partDir(a.newPid))
    CvdStore.deleteRecursively(tmp)
    scheme = newScheme
    (System.nanoTime() - t0) / 1e9
  }
}
