package repro.core.model

import java.nio.file.Path
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.{IntervalSet, Membership, VersionGraph}
import scala.collection.mutable

/** Approach 4.4: delta-based storage.
  *
  * Each version stores the modifications from a single *base* version
  * (for merges: the parent sharing the most records — §4.1): an `ins`
  * table of inserted records (full rows) and a `del` table of tombstoned
  * rids. A precedent metadata table (driver-side `baseOf`) records each
  * version's base. Checkout walks the base chain to the root applying
  * deltas — the expensive operation the paper measures.
  */
final class DeltaBased(spark: SparkSession, dir: Path) extends CvdStore(spark, dir) {
  override def name: String = "delta-based"

  private def insDir = dir.resolve("ins").toString
  private def delDir = dir.resolve("del").toString
  /** ins holds the records plus the `vid` partition column, del (vid, rid). */
  private def insLayout = recordSchema.add("vid", IntegerType)
  private val delLayout = StructType(Seq(StructField("vid", IntegerType), StructField("rid", LongType)))

  /** Precedent metadata table: vid -> base vid (-1 for the root). */
  private val baseOf = mutable.Map.empty[Int, Int]

  override def load(data: DataFrame, graph: VersionGraph): Unit = {
    registerGraph(data, graph)
    graph.versions.foreach(v => baseOf(v.vid) = graph.treeParent(v.vid))
    // Insert deltas: (vid, rid) pairs for records new at each version.
    val insPairs = graph.versions.map { v =>
      val basisRecords =
        if (v.parents.isEmpty) IntervalSet.empty
        else graph.versions(graph.treeParent(v.vid)).records
      v.vid -> v.records.diff(basisRecords)
    }
    Membership(spark, insPairs)
      .join(data, Seq("rid"))
      .write.mode("overwrite").partitionBy("vid").parquet(insDir)
    // Tombstones: (vid, rid) for records of the base absent from the child.
    val delPairs = graph.versions.flatMap { v =>
      if (v.parents.isEmpty) None
      else Some(v.vid -> graph.versions(graph.treeParent(v.vid)).records.diff(v.records))
    }
    // del stays non-partitioned: a zero-row partitioned write leaves an
    // unreadable (schema-less) directory.
    Membership(spark, delPairs)
      .write.mode("overwrite").parquet(delDir)
  }

  override protected def checkoutRows(vid: Int): DataFrame = {
    // Base chain from root down to vid.
    var chain = List(vid)
    while (baseOf(chain.head) >= 0) chain = baseOf(chain.head) :: chain
    val ins = read(insDir, insLayout)
    val del = read(delDir, delLayout)
    var acc = ins.where(col("vid") === chain.head).drop("vid")
    for ((v, hop) <- chain.zipWithIndex.tail) {
      val dels = del.where(col("vid") === v).select("rid")
      acc = acc.join(dels, Seq("rid"), "left_anti")
        .unionByName(ins.where(col("vid") === v).drop("vid"))
      // Truncate lineage every few steps so the chained plan stays tractable
      // (the walk itself is the model's inherent cost).
      if (hop % 8 == 7) acc = acc.localCheckpoint(true)
    }
    acc.select("rid", attrCols(acc): _*)
  }

  override protected def write(vid: Int, parents: Seq[Int], c: CvdStore.Commit): Unit = {
    val base = closestParent(parents, c.records).getOrElse(-1)
    val baseSet = if (base >= 0) recordsOf(base) else IntervalSet.empty
    // Inserted full rows.
    c.table.where(Membership.within(c.records.diff(baseSet)))
      .withColumn("vid", lit(vid))
      .write.mode("append").partitionBy("vid").parquet(insDir)
    // Tombstoned rids.
    Membership(spark, Seq(vid -> baseSet.diff(c.records)))
      .write.mode("append").parquet(delDir)
    baseOf(vid) = base
  }
}
