package repro.core.model

import java.nio.file.Path
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ArrayType, IntegerType, StructType}
import repro.core.{Membership, VersionGraph}

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
  private def vlists =
    read(versioning, StructType(Seq(recordSchema("rid"))).add("vlist", ArrayType(IntegerType)))

  override def load(data: DataFrame, graph: VersionGraph): Unit = {
    registerGraph(data, graph)
    data.write.mode("overwrite").parquet(dataDir)
    Membership(spark, graph)
      .groupBy("rid").agg(sort_array(collect_list(col("vid"))) as "vlist")
      .write.mode("overwrite").parquet(versioning)
  }

  override protected def checkoutRows(vid: Int): DataFrame = {
    val rids = vlists
      .where(array_contains(col("vlist"), vid))
      .select("rid")
    val df = read(dataDir, recordSchema).join(rids, Seq("rid"))
    df.select("rid", attrCols(df): _*)
  }

  override protected def write(vid: Int, parents: Seq[Int], c: CvdStore.Commit): Unit = {
    val updated = appendVid(vlists, vid, c.records, c.fresh.select("rid"))
    val next = gen + 1
    updated.write.mode("overwrite").parquet(versioningDir(next).toString)
    CvdStore.deleteRecursively(versioningDir(gen))
    gen = next
    c.fresh.write.mode("append").parquet(dataDir)
  }
}
