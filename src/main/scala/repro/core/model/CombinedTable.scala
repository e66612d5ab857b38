package repro.core.model

import java.nio.file.Path
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ArrayType, IntegerType}
import repro.core.{Membership, VersionGraph}

/** Approach 4.1: a single combined table with a `vlist` array attribute.
  *
  * Schema: (rid, pk, a*, vlist ARRAY<INT>) — vlist is the inverted index
  * of versions containing the record. Checkout filters with
  * `array_contains(vlist, vid)` (the paper's `ARRAY[vi] <@ vlist`);
  * commit must append the new vid to the vlist of every record present
  * in the committed table, which on an immutable backend is a rewrite of
  * the entire combined table — the expensive operation the paper measures.
  */
final class CombinedTable(spark: SparkSession, dir: Path) extends CvdStore(spark, dir) {
  override def name: String = "combined-table"

  // Two alternating generations so a rewrite never reads the files it is
  // replacing (Parquet cannot be updated in place).
  private var gen = 0
  private def tableDir(g: Int) = dir.resolve(s"combined-$g")
  private def current = tableDir(gen).toString
  private def combined = read(current, recordSchema.add("vlist", ArrayType(IntegerType)))

  override def load(data: DataFrame, graph: VersionGraph): Unit = {
    registerGraph(data, graph)
    val m = Membership(spark, graph)
    val vlists = m.groupBy("rid").agg(sort_array(collect_list(col("vid"))) as "vlist")
    data.join(vlists, Seq("rid")).write.mode("overwrite").parquet(current)
  }

  override protected def checkoutRows(vid: Int): DataFrame = {
    val df = combined
      .where(array_contains(col("vlist"), vid))
      .drop("vlist")
    df.select("rid", attrCols(df): _*)
  }

  override protected def write(vid: Int, parents: Seq[Int], c: CvdStore.Commit): Unit = {
    // Rewrite every record's vlist; records absent from T' pass through.
    val updated = appendVid(combined, vid, c.records, c.fresh)
    val next = gen + 1
    updated.write.mode("overwrite").parquet(tableDir(next).toString)
    CvdStore.deleteRecursively(tableDir(gen))
    gen = next
  }
}
