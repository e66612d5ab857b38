package repro.core.model

import java.nio.file.Path
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.IntegerType
import repro.core.{Membership, VersionGraph}

/** Approach 4.5: one full table per version.
  *
  * Stored as a single Parquet dataset partitioned by `vid`, so each
  * version is its own directory of files. Minimal checkout cost, maximal
  * storage (every record duplicated once per version containing it).
  */
final class ATablePerVersion(spark: SparkSession, dir: Path) extends CvdStore(spark, dir) {
  override def name: String = "a-table-per-version"

  private def tablesDir = dir.resolve("tables").toString
  /** The records plus the `vid` partition column. */
  private def tables = read(tablesDir, recordSchema.add("vid", IntegerType))

  override def load(data: DataFrame, graph: VersionGraph): Unit = {
    registerGraph(data, graph)
    val m = Membership(spark, graph)
    data.join(m, Seq("rid"))
      .write.mode("overwrite").partitionBy("vid").parquet(tablesDir)
  }

  override protected def checkoutRows(vid: Int): DataFrame = {
    val df = tables.where(col("vid") === vid).drop("vid")
    df.select("rid", attrCols(df): _*)
  }

  override protected def write(vid: Int, parents: Seq[Int], c: CvdStore.Commit): Unit =
    c.table.withColumn("vid", lit(vid))
      .write.mode("append").partitionBy("vid").parquet(tablesDir)
}
