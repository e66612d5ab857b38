package repro.core.partition

import java.nio.file.{Files, Path}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.VersionGraph
import repro.core.model.CvdStore
import scala.collection.mutable

/** Split-by-rlist storage sharded by a [[PartitionScheme]] (Chapter 5).
  *
  * Each partition holds its own data table (the union of its member
  * versions' records) and its own versioning table; a checkout consults
  * exactly one partition — the whole point of the partition optimizer.
  *
  * `migrate` applies a [[Migration.Plan]]: partitions mapped from a close
  * old partition are produced by delete + insert against the old files,
  * unmapped ones are rebuilt from the retained master data table.
  */
final class PartitionedStore(val spark: SparkSession, val dir: Path) {
  Files.createDirectories(dir)

  private def masterDir = dir.resolve("master-data").toString
  private def partDir(pid: Int) = dir.resolve(s"part-$pid")
  private var scheme: PartitionScheme = _
  private var graph: VersionGraph = _

  def currentScheme: PartitionScheme = scheme

  /** Bulk-load the CVD under the given partitioning scheme. */
  def load(data: DataFrame, g: VersionGraph, s: PartitionScheme): Unit = {
    require(s.numVersions == g.numVersions)
    graph = g; scheme = s
    data.write.mode("overwrite").parquet(masterDir)
    val master = spark.read.parquet(masterDir)
    for (pid <- 0 until s.numPartitions) writePartition(master, pid, s.versionsOf(pid))
  }

  private def writePartition(master: DataFrame, pid: Int, members: Seq[Int]): Unit = {
    val rids = CvdStore.ridsDF(spark, CostModel.partitionRecords(graph, members))
    master.join(rids, Seq("rid"))
      .write.mode("overwrite").parquet(partDir(pid).resolve("data").toString)
    writeVersioning(members, partDir(pid).resolve("versioning"))
  }

  /** The (vid, rlist) versioning table of the `members` versions. */
  private def writeVersioning(members: Seq[Int], out: Path): Unit =
    CvdStore.membership(spark, members.map(v => v -> graph.versions(v).records))
      .groupBy("vid").agg(sort_array(collect_list(col("rid"))) as "rlist")
      .write.mode("overwrite").parquet(out.toString)

  /** Materialize version `vid` (schema rid, pk, a*) — touches only the
    * partition containing it.
    */
  def checkout(vid: Int): DataFrame = {
    val pid = scheme.pidOf(vid)
    val rids = spark.read.parquet(partDir(pid).resolve("versioning").toString)
      .where(col("vid") === vid)
      .select(explode(col("rlist")) as "rid")
    val data = spark.read.parquet(partDir(pid).resolve("data").toString)
    val out = data.join(rids, Seq("rid"))
    out.select("rid", out.columns.filterNot(_ == "rid").toSeq: _*)
  }

  /** Per-partition on-disk sizes in bytes (excludes the master copy,
    * which is an ingest convenience, not part of the storage model).
    */
  def partitionBytes: Vector[Long] =
    (0 until scheme.numPartitions).toVector.map(p => CvdStore.du(partDir(p)))

  def storageBytes: Long = partitionBytes.sum

  /** Execute a migration to `newScheme` following `plan`; returns wall
    * seconds spent rewriting partition data.
    */
  def migrate(newScheme: PartitionScheme, plan: Migration.Plan): Double = {
    val t0 = System.nanoTime()
    val master = spark.read.parquet(masterDir)
    val tmp = dir.resolve("migrating")
    CvdStore.deleteRecursively(tmp)
    Files.createDirectories(tmp)
    for (a <- plan.assignments) {
      val members = newScheme.versionsOf(a.newPid)
      val targetRids = CvdStore.ridsDF(spark, CostModel.partitionRecords(graph, members))
      val dataOut = tmp.resolve(s"part-${a.newPid}")
      a.fromOldPid match {
        case Some(oldPid) =>
          val oldData = spark.read.parquet(partDir(oldPid).resolve("data").toString)
          // Keep overlapping records from the old partition, fetch the
          // inserts from the master table.
          val keep = oldData.join(targetRids, Seq("rid"), "left_semi")
          val ins = master.join(targetRids, Seq("rid"), "left_semi")
            .join(oldData.select("rid"), Seq("rid"), "left_anti")
          keep.unionByName(ins)
            .write.mode("overwrite").parquet(dataOut.resolve("data").toString)
        case None =>
          master.join(targetRids, Seq("rid"), "left_semi")
            .write.mode("overwrite").parquet(dataOut.resolve("data").toString)
      }
      writeVersioning(members, dataOut.resolve("versioning"))
    }
    // Swap in the new partitions.
    for (p <- 0 until scheme.numPartitions) CvdStore.deleteRecursively(partDir(p))
    for (a <- plan.assignments) {
      Files.move(tmp.resolve(s"part-${a.newPid}"), partDir(a.newPid))
    }
    CvdStore.deleteRecursively(tmp)
    scheme = newScheme
    (System.nanoTime() - t0) / 1e9
  }
}
