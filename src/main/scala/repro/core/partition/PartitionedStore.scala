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
  * table (vid, rlist ARRAY<BIGINT>) that the driver writes from its record
  * sets by [[Membership.writeRlists]], with no Spark job. Checkout and diff
  * read one partition's data table: the driver holds each version's rlist
  * as its record set, so a checkout is one scan of that table filtered by
  * [[Membership.within]], with no versioning lookup and no join — the
  * whole point of the partition optimizer is that this table holds
  * |R_k| ≤ |R| rows.
  *
  * A commit joins the partition of the parent sharing the most records
  * with it and appends the net-new records, then one versioning row: the
  * driver writes both files by [[Membership.writeRows]], so a commit runs
  * one Spark job, the read of its input. A merge across partitions also
  * appends the inherited records that partition lacks, in one Spark
  * write. `migrate` builds every new partition from the old partitions'
  * files, so the store keeps no other copy of the data: it keeps an old
  * partition's files where the new one only adds records to it, and
  * writes every other partition's rows in one Spark job.
  */
class PartitionedStore(spark: SparkSession, dir: Path) extends CvdStore(spark, dir) {
  override def name: String = "split-by-rlist"

  private var scheme = PartitionScheme(Vector.empty)
  private def partDir(pid: Int) = dir.resolve(s"part-$pid")
  private def tablePath(pid: Int, table: String) = partDir(pid).resolve(table).toString
  private def dataOf(pid: Int) = read(tablePath(pid, "data"), recordSchema)

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
      CvdStore.deleteRecursively(partDir(pid).resolve("versioning"))
      writeVersioning(members, tablePath(pid, "versioning"))
    }
  }

  /** The rows of `rows`, which hold exactly the records `all`, whose rid is
    * in `rids`: `rows` itself when that is all of them.
    */
  private def restrict(rows: DataFrame, all: IntervalSet, rids: IntervalSet): DataFrame =
    if (rids == all) rows else rows.where(Membership.within(rids))

  /** Add the (vid, rlist) rows of the `members` versions to the versioning
    * table at `path`, as one file.
    */
  private def writeVersioning(members: Seq[Int], path: String): Unit =
    Membership.writeRlists(spark, path, members.map(v => v -> recordsOf(v)))

  override protected def checkoutRows(vid: Int): DataFrame = rowsOf(vid, recordsOf(vid))

  /** One scan of the version's partition data table, whose columns are the
    * record schema's, rid first.
    */
  override protected def rowsOf(vid: Int, rids: IntervalSet): DataFrame =
    dataOf(scheme.pidOf(vid)).where(Membership.within(rids))

  /** The commit's records first, then its versioning row, so a commit
    * that fails leaves no versioning row naming unwritten records. The
    * driver writes the fresh rows and the versioning row, with no Spark
    * job; only a merge's inherited rows that the partition lacks take one
    * Spark write.
    */
  override protected def write(vid: Int, parents: Seq[Int], c: CvdStore.Commit): Unit = {
    val pid = closestParent(parents, c.records).map(scheme.pidOf).getOrElse(0)
    if (c.freshRows.nonEmpty)
      Membership.writeRows(spark, tablePath(pid, "data"), recordSchema, c.freshRows.iterator)
    val inherited = c.records.intersect(IntervalSet.unionAll(parents.map(recordsOf)))
    val lacking = inherited.diff(scheme.versionsOf.lift(pid).fold(IntervalSet.empty)(partitionRecords))
    if (!lacking.isEmpty)
      restrict(c.table, c.records, lacking).write.mode("append").parquet(tablePath(pid, "data"))
    Membership.writeRlists(spark, tablePath(pid, "versioning"), Seq(vid -> c.records))
    scheme = PartitionScheme(scheme.assignment :+ pid)
  }

  /** The deduplicated data table (rid, pk, a*): the partitions' union
    * (the table [[repro.core.model.VersionSql]] queries).
    */
  def data: DataFrame =
    (0 until scheme.numPartitions).map(dataOf).reduce(_ unionByName _).dropDuplicates("rid")

  /** Every version's rows tagged with its vid: (vid, rid, pk, a*). Each
    * partition's data rows are routed to its member versions' record sets
    * by [[Membership.route]], so no versioning table is read and nothing
    * is joined.
    */
  def withVid(): DataFrame =
    (0 until scheme.numPartitions).map { pid =>
      val members = scheme.versionsOf(pid).map(v => v -> recordsOf(v))
      dataOf(pid).select(explode(Membership.route(members)) as "vid", col("*"))
    }.reduce(_ unionByName _)

  /** Execute a migration to `newScheme` following `plan`.
    *
    * Each new partition is built from old partition files only. The driver
    * splits its records with IntervalSet algebra into takes (old pid, new
    * pid, rids): what its mapped old partition holds (§5.4's delete), then
    * each record still missing from the first old partition that holds it
    * (the inserts). A new partition whose mapped old partition holds none
    * of its deletes keeps that partition's data files, hard-linked, and
    * takes only its inserts. All other takes are one Spark job: each
    * contributing old partition's rows get the new pids of the takes that
    * hold them, by [[Membership.route]] on the driver's takes, and the
    * union of them is written partitioned by new pid, with no join. The
    * driver writes each new partition's versioning rows itself, so a
    * migration runs at most one Spark job whatever the partition count.
    * The new partitions are staged beside the old ones, which are deleted
    * only when every write has finished.
    *
    * Throws `IllegalArgumentException`, before anything is written, when
    * the plan does not assign each new partition exactly once or maps an old
    * partition that does not exist or that another assignment maps.
    */
  def migrate(newScheme: PartitionScheme, plan: Migration.Plan): Unit = {
    require(newScheme.numVersions == scheme.numVersions)
    validate(newScheme, plan)
    val old = scheme.versionsOf.map(partitionRecords)
    val takes = Vector.newBuilder[(Int, (Int, IntervalSet))] // (old pid, (new pid, rids))
    val reused = Vector.newBuilder[(Int, Int)]            // (old pid, new pid)
    for (a <- plan.assignments) {
      val target = partitionRecords(newScheme.versionsOf(a.newPid))
      val kept = a.fromOldPid.filter(j => old(j).diff(target).isEmpty)
      kept.foreach(j => reused += j -> a.newPid)
      var missing = kept.fold(target)(j => target.diff(old(j)))
      for (pid <- a.fromOldPid.toSeq ++ old.indices.filterNot(a.fromOldPid.contains)) {
        val take = missing.intersect(old(pid))
        missing = missing.diff(take)
        if (!take.isEmpty) takes += pid -> (a.newPid -> take)
      }
    }
    val staging = dir.resolve("migrating")
    CvdStore.deleteRecursively(staging)
    val bySrc = takes.result().groupMap(_._1)(_._2)
    if (bySrc.nonEmpty)
      bySrc.toSeq.sortBy(_._1)
        .map { case (src, ts) => dataOf(src).withColumn("pid", explode(Membership.route(ts))) }
        .reduce(_ unionByName _)
        .write.partitionBy("pid").parquet(staging.resolve("data").toString)
    for (k <- 0 until newScheme.numPartitions)
      writeVersioning(newScheme.versionsOf(k), staging.resolve("versioning").resolve(s"pid=$k").toString)
    for ((j, k) <- reused.result()) {
      val to = Files.createDirectories(staging.resolve("data").resolve(s"pid=$k"))
      val files = Files.list(partDir(j).resolve("data"))
      try files.forEach(f => Files.createLink(to.resolve(f.getFileName), f)) finally files.close()
    }
    // Swap in the new partitions.
    for (p <- 0 until scheme.numPartitions) CvdStore.deleteRecursively(partDir(p))
    for (k <- 0 until newScheme.numPartitions; table <- Seq("data", "versioning")) {
      val staged = staging.resolve(table).resolve(s"pid=$k")
      val to = Files.createDirectories(partDir(k)).resolve(table)
      if (Files.exists(staged)) Files.move(staged, to) else Files.createDirectories(to)
    }
    CvdStore.deleteRecursively(staging)
    scheme = newScheme
  }

  /** Rejects a plan that does not assign each of `newScheme`'s partitions
    * exactly once, or that maps an old partition out of range or twice.
    */
  private def validate(newScheme: PartitionScheme, plan: Migration.Plan): Unit = {
    def reject(msg: String): Nothing = throw new IllegalArgumentException(s"migration rejected: $msg")
    val (n, m) = (newScheme.numPartitions, scheme.numPartitions)
    val times = plan.assignments.groupMapReduce(_.newPid)(_ => 1)(_ + _)
    for (k <- times.keys.toSeq.sorted) {
      if (k < 0 || k >= n) reject(s"new partition $k is not in the scheme's partitions 0 until $n")
      if (times(k) > 1) reject(s"new partition $k is assigned ${times(k)} times")
    }
    (0 until n).find(!times.contains(_)).foreach(k => reject(s"new partition $k has no assignment"))
    val mapped = plan.assignments.sortBy(_.newPid).flatMap(a => a.fromOldPid.map(_ -> a.newPid))
    for ((j, k) <- mapped if j < 0 || j >= m)
      reject(s"old partition $j, mapped by new partition $k, is not in 0 until $m")
    for ((j, ks) <- mapped.groupMap(_._1)(_._2).toSeq.sortBy(_._1) if ks.length > 1)
      reject(s"old partition $j is mapped by new partitions ${ks.mkString(", ")}")
  }
}
