package repro.core

import java.io.IOException
import java.util.UUID
import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.Path
import org.apache.parquet.hadoop.ParquetWriter
import org.apache.parquet.hadoop.api.WriteSupport
import org.apache.parquet.hadoop.metadata.CompressionCodecName
import org.apache.parquet.hadoop.util.HadoopOutputFile
import org.apache.parquet.io.OutputFile
import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.UnsafeArrayData
import org.apache.spark.sql.execution.datasources.parquet.ParquetWriteSupport
import org.apache.spark.sql.functions._
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.types._
import scala.collection.mutable

/** The version-record bipartite graph E as Spark relations: the one path
  * from driver-side [[IntervalSet]]s to DataFrames, its inverse, the one
  * version-overlap computation, and the driver's Parquet writer, which
  * writes versioning tables and a commit's fresh records.
  */
object Membership {

  /** True on the rows whose `rid` is in `s`: the one way a store selects a
    * record set's rows. `rid BETWEEN min AND max` bounds the set, and
    * Parquet skips the row groups outside it; a UDF then binary-searches
    * `s`'s intervals, held as two primitive arrays in its closure. It is
    * one expression however many intervals `s` has, and it reads no
    * relation of rids, so selecting the rows of a table is one scan with
    * no join.
    */
  def within(s: IntervalSet): Column =
    if (s.isEmpty) lit(false)
    else {
      val (starts, ends) = arrays(s)
      val in = udf((rid: Long) => search(starts, ends, rid)).withName("within")
      col("rid").between(starts.head, ends.last) && in(col("rid"))
    }

  /** The keys of the sets in `sets` that hold the row's `rid`, in the
    * order of `sets`: `explode` it to route each row to every key whose set
    * holds it, and to drop the rows in no set.
    */
  def route(sets: Seq[(Int, IntervalSet)]): Column = {
    val keys = sets.map(_._1).toArray
    val (starts, ends) = sets.map(kv => arrays(kv._2)).toArray.unzip
    udf { (rid: Long) =>
      val out = Array.newBuilder[Int]
      for (i <- keys.indices) if (search(starts(i), ends(i), rid)) out += keys(i)
      out.result()
    }.withName("route")(col("rid"))
  }

  /** `s`'s interval starts and ends as two arrays. */
  private def arrays(s: IntervalSet): (Array[Long], Array[Long]) =
    (s.intervals.map(_._1).toArray, s.intervals.map(_._2).toArray)

  /** Whether `x` is in one of the sorted, disjoint intervals
    * `[starts(i), ends(i)]`: a binary search.
    */
  private def search(starts: Array[Long], ends: Array[Long], x: Long): Boolean = {
    var lo = 0; var hi = starts.length - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      if (x < starts(mid)) hi = mid - 1
      else if (x > ends(mid)) lo = mid + 1
      else return true
    }
    false
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

  /** Write one (vid, rlist) versioning row per set of `sets`, in their
    * order, its rlist the set's rids in ascending order: one Parquet file
    * added to the table at `dir` by [[writeRows]].
    */
  def writeRlists(spark: SparkSession, dir: String, sets: Seq[(Int, IntervalSet)]): Unit =
    writeRows(spark, dir, VersioningSchema,
      sets.iterator.map { case (vid, s) => InternalRow(vid, UnsafeArrayData.fromPrimitiveArray(ridArray(s))) })

  /** `s`'s rids in ascending order. */
  private def ridArray(s: IntervalSet): Array[Long] = {
    val out = new Array[Long](Math.toIntExact(s.size))
    var i = 0
    for ((a, b) <- s.intervals) {
      var r = a
      while (r <= b) { out(i) = r; i += 1; r += 1 }
    }
    out
  }

  /** Write `rows`, each an `InternalRow` of `schema`, in their order: one
    * Parquet file added to the table at `dir`. The driver streams the rows
    * into the file through parquet-hadoop and Spark's own
    * `ParquetWriteSupport`, configured from the session as a Spark write
    * configures it, so the file and its footer are laid out as Spark
    * writes `schema`, and no Spark job runs. The file is written under a
    * hidden name, which readers skip, and renamed into place when it is
    * complete, so a write that fails leaves no visible file.
    */
  def writeRows(spark: SparkSession, dir: String, schema: StructType, rows: Iterator[InternalRow]): Unit = {
    val conf = new Configuration(spark.sparkContext.hadoopConfiguration)
    ParquetWriteSupport.setSchema(schema, conf)
    for (key <- WriteSettings) conf.set(key, spark.conf.get(key))
    val name = s"part-00000-${UUID.randomUUID}-c000.snappy.parquet"
    val (tmp, file) = (new Path(dir, s".$name.tmp"), new Path(dir, name))
    val fs = file.getFileSystem(conf)
    try {
      val out = new RowWriter(HadoopOutputFile.fromPath(tmp, conf))
        .withConf(conf).withCompressionCodec(CompressionCodecName.SNAPPY).build()
      try rows.foreach(out.write) finally out.close()
      if (!fs.rename(tmp, file)) throw new IOException(s"could not rename $tmp to $file")
    } catch { case e: Throwable => fs.delete(tmp, false); throw e }
  }

  /** The session settings `ParquetWriteSupport` reads from the Hadoop
    * configuration, which a Spark write copies there.
    */
  private val WriteSettings = Seq(SQLConf.PARQUET_WRITE_LEGACY_FORMAT, SQLConf.PARQUET_OUTPUT_TIMESTAMP_TYPE,
    SQLConf.PARQUET_FIELD_ID_WRITE_ENABLED, SQLConf.LEGACY_PARQUET_NANOS_AS_LONG,
    SQLConf.PARQUET_ANNOTATE_VARIANT_LOGICAL_TYPE).map(_.key)

  /** Builds the `ParquetWriter` of `InternalRow`s to `file`. */
  private final class RowWriter(file: OutputFile) extends ParquetWriter.Builder[InternalRow, RowWriter](file) {
    override protected def self(): RowWriter = this
    override protected def getWriteSupport(conf: Configuration): WriteSupport[InternalRow] =
      new ParquetWriteSupport
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
