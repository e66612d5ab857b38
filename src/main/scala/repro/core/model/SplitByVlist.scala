package repro.core.model

import java.nio.file.Path
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.VersionGraph

/** Approach 4.2: data table + versioning table keyed by rid.
  *
  * Data table: (rid, pk, a*) — each immutable record stored once.
  * Versioning table: (rid, vlist ARRAY<INT>).
  *
  * Commit still appends the new vid to every contained record's vlist
  * (a rewrite of the versioning table — smaller than combined-table's
  * rewrite but still O(|R|)); checkout filters the versioning table then
  * joins the data table.
  */
final class SplitByVlist(spark: SparkSession, dir: Path) extends CvdStore(spark, dir) {
  override def name: String = "split-by-vlist"

  private def dataDir = dir.resolve("data").toString
  private var gen = 0
  private def versioningDir(g: Int) = dir.resolve(s"versioning-$g")
  private def versioning = versioningDir(gen).toString

  override def load(data: DataFrame, graph: VersionGraph): Unit = {
    registerGraph(graph)
    data.write.mode("overwrite").parquet(dataDir)
    CvdStore.membership(spark, graph)
      .groupBy("rid").agg(sort_array(collect_list(col("vid"))) as "vlist")
      .write.mode("overwrite").parquet(versioning)
  }

  override def checkout(vid: Int): DataFrame = {
    val rids = spark.read.parquet(versioning)
      .where(array_contains(col("vlist"), vid))
      .select("rid")
    val df = spark.read.parquet(dataDir).join(rids, Seq("rid"))
    df.select("rid", attrCols(df): _*)
  }

  override protected def write(vid: Int, parents: Seq[Int], c: CvdStore.Commit): Unit = {
    val versionRids = CvdStore.ridsDF(spark, c.records).withColumn("__in", lit(true))
    val old = spark.read.parquet(versioning)
    val updated = old.join(versionRids, Seq("rid"), "left")
      .withColumn("vlist",
        when(col("__in").isNotNull, concat(col("vlist"), array(lit(vid))))
          .otherwise(col("vlist")))
      .drop("__in")
    val freshRows = c.fresh.select(col("rid"), array(lit(vid)) as "vlist")
    val next = gen + 1
    updated.unionByName(freshRows)
      .write.mode("overwrite").parquet(versioningDir(next).toString)
    CvdStore.deleteRecursively(versioningDir(gen))
    gen = next
    c.fresh.write.mode("append").parquet(dataDir)
  }
}
