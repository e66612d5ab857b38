package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** The version-record bipartite graph E as Spark relations: the one path
  * from driver-side [[IntervalSet]]s to DataFrames, and the one rid-level
  * version-overlap self-join.
  */
object Membership {

  /** One `rid` row per member of `s`, exploded from its intervals. */
  def ridsDF(spark: SparkSession, s: IntervalSet): DataFrame = {
    import spark.implicits._
    s.intervals.toDF("s", "e").select(explode(expr("sequence(s, e)")) as "rid")
  }

  /** DataFrame of (vid, rid) membership pairs for the given record sets. */
  def apply(spark: SparkSession, sets: Seq[(Int, IntervalSet)]): DataFrame = {
    import spark.implicits._
    sets.flatMap { case (vid, s) => s.intervals.map { case (a, b) => (vid, a, b) } }
      .toDF("vid", "s", "e")
      .select(col("vid"), explode(expr("sequence(s, e)")) as "rid")
  }

  /** DataFrame of (vid, rid) pairs for a whole graph. */
  def apply(spark: SparkSession, graph: VersionGraph): DataFrame =
    apply(spark, graph.versions.map(v => v.vid -> v.records))

  /** The schema of a split-by-rlist versioning table. */
  val VersioningSchema: StructType = StructType(Seq(
    StructField("vid", IntegerType), StructField("rlist", ArrayType(LongType))))

  /** One (vid, rlist) versioning row per version, its rlist the version's
    * rids in ascending order. The rows are built from a local relation of
    * the intervals, so no rid crosses a shuffle, and sit in one partition:
    * a write of them makes one file.
    */
  def rlists(spark: SparkSession, sets: Seq[(Int, IntervalSet)]): DataFrame = {
    import spark.implicits._
    sets.map { case (vid, s) => (vid, s.intervals) }.toDF("vid", "ivs")
      .select(col("vid"), flatten(transform(col("ivs"), iv => sequence(iv("_1"), iv("_2")))) as "rlist")
      .coalesce(1)
  }

  /** Pairwise overlap counts |R(u) ∩ R(v)| for u < v, and each version's
    * record count, from one distributed self-join on a (vid, rid)
    * membership relation of distinct pairs (Σ_r c_r² rows, c_r the number
    * of versions holding rid r): the pairs u ≤ v are counted in one
    * aggregation, whose diagonal holds the sizes. Pairs sharing no record,
    * and versions with no record, are absent.
    */
  def overlaps(membership: DataFrame): (Map[(Int, Int), Long], Map[Int, Long]) = {
    val m = membership.select(col("vid").cast("int") as "vid", col("rid"))
    val counts = m.toDF("v1", "rid").join(m.toDF("v2", "rid"), Seq("rid"))
      .where(col("v1") <= col("v2"))
      .groupBy("v1", "v2").count().collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getLong(2))
    val (sizes, pairs) = counts.partition { case ((u, v), _) => u == v }
    (pairs.toMap, sizes.map { case ((v, _), n) => v -> n }.toMap)
  }
}
