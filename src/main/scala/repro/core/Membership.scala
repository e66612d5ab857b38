package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import scala.collection.mutable

/** The version-record bipartite graph E as Spark relations: the one path
  * from driver-side [[IntervalSet]]s to DataFrames, its inverse, and the
  * one version-overlap computation.
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
    * rids in ascending order: one versioning table.
    */
  def rlists(spark: SparkSession, sets: Seq[(Int, IntervalSet)]): DataFrame =
    rlists(spark, sets, _ => 0).drop("pid")

  /** The (pid, vid, rlist) rows of several versioning tables: version
    * `vid`'s row belongs in partition `pidOf(vid)`'s table. The rows are
    * built from a local relation of the intervals, so no rid crosses a
    * shuffle, and sit in one Spark partition: a write of them makes one
    * file, or one per pid when it is partitioned by `pid`.
    */
  def rlists(spark: SparkSession, sets: Seq[(Int, IntervalSet)], pidOf: Int => Int): DataFrame = {
    import spark.implicits._
    sets.map { case (vid, s) => (pidOf(vid), vid, s.intervals) }.toDF("pid", "vid", "ivs")
      .select(col("pid"), col("vid"),
        flatten(transform(col("ivs"), iv => sequence(iv("_1"), iv("_2")))) as "rlist")
      .coalesce(1)
  }

  /** Each version's record set from a (vid, rid) membership relation:
    * the inverse of [[apply]]. Each Spark partition compresses its own
    * rows into (vid, s, e) intervals, so one job runs and nothing is
    * shuffled; the driver merges the intervals, which joins a version whose
    * rids span partitions and drops repeated pairs. Versions with no
    * record are absent.
    */
  def recordSets(membership: DataFrame): Map[Int, IntervalSet] = {
    import membership.sparkSession.implicits._
    membership.select(col("vid").cast("int"), col("rid").cast("long")).as[(Int, Long)]
      .mapPartitions { rows =>
        val byVid = mutable.Map.empty[Int, mutable.ArrayBuffer[Long]]
        for ((v, r) <- rows) byVid.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += r
        byVid.iterator.flatMap { case (v, rids) =>
          IntervalSet.fromSeq(rids.toSeq).intervals.map { case (s, e) => (v, s, e) }
        }
      }
      .collect().toSeq
      .groupMap(_._1)(t => (t._2, t._3))
      .map { case (v, ivs) => v -> IntervalSet.fromIntervals(ivs) }
  }

  /** Pairwise overlap counts |R(u) ∩ R(v)| for u < v, and each version's
    * record count, by interval intersection on the driver. Pairs sharing
    * no record, and versions with no record, are absent.
    */
  def overlaps(sets: Map[Int, IntervalSet]): (Map[(Int, Int), Long], Map[Int, Long]) = {
    val vs = sets.toVector.filterNot(_._2.isEmpty).sortBy(_._1)
    val pairs = for {
      i <- vs.indices.iterator; j <- (i + 1 until vs.length).iterator
      x = vs(i)._2.intersectSize(vs(j)._2); if x > 0
    } yield (vs(i)._1, vs(j)._1) -> x
    (pairs.toMap, vs.map { case (v, s) => v -> s.size }.toMap)
  }
}
