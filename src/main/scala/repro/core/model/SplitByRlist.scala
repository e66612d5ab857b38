package repro.core.model

import java.nio.file.Path
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{IntervalSet, VersionGraph}

/** Approach 4.3: data table + versioning table keyed by vid — the data
  * model OrpheusDB adopts.
  *
  * Data table: (rid, pk, a*). Versioning table: (vid, rlist ARRAY<BIGINT>).
  *
  * Commit appends a *single row* (the new vid and its rlist, built on the
  * driver from the version's record set) to the versioning table and the
  * net-new records to the data table — no array rewrite at all, which is
  * why the paper picks this model. Checkout looks up one versioning row,
  * unnests the rlist, and hash-joins the data table.
  */
final class SplitByRlist(spark: SparkSession, dir: Path) extends CvdStore(spark, dir) {
  override def name: String = "split-by-rlist"

  private def dataDir = dir.resolve("data").toString
  private def versioningDir = dir.resolve("versioning").toString

  override def load(data: DataFrame, graph: VersionGraph): Unit = {
    registerGraph(graph)
    data.write.mode("overwrite").parquet(dataDir)
    CvdStore.membership(spark, graph)
      .groupBy("vid").agg(sort_array(collect_list(col("rid"))) as "rlist")
      .write.mode("overwrite").parquet(versioningDir)
  }

  override def checkout(vid: Int): DataFrame = {
    val rids = spark.read.parquet(versioningDir)
      .where(col("vid") === vid)
      .select(explode(col("rlist")) as "rid")
    val df = spark.read.parquet(dataDir).join(rids, Seq("rid"))
    df.select("rid", attrCols(df): _*)
  }

  override protected def write(vid: Int, parents: Seq[Int], c: CvdStore.Commit): Unit = {
    import spark.implicits._
    // One-row append to the versioning table, built from the record set.
    Seq((vid, c.records.toSeq)).toDF("vid", "rlist")
      .write.mode("append").parquet(versioningDir)
    c.fresh.write.mode("append").parquet(dataDir)
  }

  /** Reads the rows straight from the data table: no versioning lookup. */
  override protected def rowsOf(vid: Int, rids: IntervalSet): DataFrame = {
    val df = spark.read.parquet(dataDir).join(CvdStore.ridsDF(spark, rids), Seq("rid"), "left_semi")
    df.select("rid", attrCols(df): _*)
  }
}
