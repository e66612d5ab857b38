package repro.core.model

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{IntervalSet, Membership}
import repro.core.partition.PartitionedStore

/** §3.3.2: the OrpheusDB SQL surface on top of a CVD.
  *
  * Two query forms are supported, mirroring the thesis:
  *
  *  1. `SELECT ... FROM VERSION v1, v2, ... OF CVD name [WHERE ...] [LIMIT n]`
  *     — the union of the listed versions' records is registered as a
  *     temp view and the rest of the query runs through Spark SQL.
  *  2. `SELECT vid, ... FROM CVD name [WHERE ...] GROUP BY vid[, ...]`
  *     — per-version aggregation: the data table joined with the
  *     exploded membership relation is registered so `vid` is an
  *     ordinary grouping column.
  *
  * Plus the functional primitives of §3.3.2: `vDiff` and `vIntersect`
  * over sets of versions, and graph predicates via the store's metadata.
  */
final class VersionSql(spark: SparkSession, store: PartitionedStore) {

  private val VersionOf =
    raw"(?is)\bFROM\s+VERSION\s+([\d\s,]+?)\s+OF\s+CVD\s+(\w+)".r
  private val FromCvd = raw"(?is)\bFROM\s+CVD\s+(\w+)".r

  /** Execute an OrpheusDB-style SQL string against the store's CVD. */
  def run(sql: String): DataFrame = {
    VersionOf.findFirstMatchIn(sql) match {
      case Some(m) =>
        val vids = m.group(1).split(",").map(_.trim.toInt).toSeq
        val cvd = m.group(2)
        val view = s"${cvd}_v${vids.mkString("_")}"
        materializeVersions(vids).createOrReplaceTempView(view)
        spark.sql(VersionOf.replaceFirstIn(sql, s"FROM $view"))
      case None =>
        FromCvd.findFirstMatchIn(sql) match {
          case Some(m) =>
            val cvd = m.group(1)
            val view = s"${cvd}_all_versions"
            store.withVid().createOrReplaceTempView(view)
            spark.sql(FromCvd.replaceFirstIn(sql, s"FROM $view"))
          case None =>
            throw new IllegalArgumentException(
              s"not an OrpheusDB query (no VERSION ... OF CVD / FROM CVD): $sql")
        }
    }
  }

  /** Merge-materialize versions in precedence order (§3.3.1): a record's
    * primary key appears once, the earliest-listed version winning.
    */
  def materializeVersions(vids: Seq[Int]): DataFrame = {
    require(vids.nonEmpty)
    val tagged = vids.zipWithIndex.map { case (v, i) =>
      store.checkout(v).withColumn("__prec", lit(i))
    }
    val union = tagged.reduce(_ unionByName _)
    import org.apache.spark.sql.expressions.Window
    val w = Window.partitionBy("pk").orderBy(col("__prec"))
    union.withColumn("__rk", row_number().over(w))
      .where(col("__rk") === 1)
      .drop("__prec", "__rk")
  }

  /** v_diff: records in every version of `a` but in no version of `b`.
    * The rid set is worked out on the driver from the store's record sets,
    * so the data table is read once.
    */
  def vDiff(a: Seq[Int], b: Seq[Int]): DataFrame = {
    val rids = a.map(store.records).reduce(_ intersect _).diff(IntervalSet.unionAll(b.map(store.records)))
    store.data.where(Membership.within(rids))
  }

  /** v_intersect: records present in all listed versions. */
  def vIntersect(vids: Seq[Int]): DataFrame = vDiff(vids, Nil)
}
