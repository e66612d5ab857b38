package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

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

  /** Pairwise overlap counts |R(u) ∩ R(v)| for u < v, via a distributed
    * self-join on a (vid, rid) membership relation (Σ_r c_r² rows, c_r
    * the number of versions holding rid r); also returns each version's
    * record count. Pairs sharing no record are absent.
    */
  def overlaps(membership: DataFrame): (Map[(Int, Int), Long], Map[Int, Long]) = {
    val m = membership.select(col("vid").cast("int") as "vid", col("rid"))
    val sizes = m.groupBy("vid").count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    val a = m.toDF("v1", "rid"); val b = m.toDF("v2", "rid")
    val overlaps = a.join(b, Seq("rid")).where(col("v1") < col("v2"))
      .groupBy("v1", "v2").count().collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getLong(2)).toMap
    (overlaps, sizes)
  }
}
