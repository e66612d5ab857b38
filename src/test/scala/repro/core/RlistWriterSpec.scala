package repro.core

import java.net.URI
import java.nio.file.{Files, Path => JPath}
import org.apache.hadoop.fs.{FileSystem, Path, RawLocalFileSystem}
import org.apache.hadoop.fs.permission.FsPermission
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.parquet.schema.MessageTypeParser
import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._
import repro.{SparkJobs, SparkSpec}
import repro.core.model.SplitByRlist

/** The driver's Parquet writer, `Membership.writeRows`, and its versioning
  * rows, `Membership.writeRlists`, against the files Spark writes, and the
  * `file:` FileSystem it writes through.
  */
class RlistWriterSpec extends AnyFunSuite with SparkSpec {

  private def conf = spark.sparkContext.hadoopConfiguration

  private def listing(dir: JPath): Seq[String] = {
    val files = Files.list(dir)
    try files.iterator.asScala.map(_.getFileName.toString).toSeq.sorted finally files.close()
  }

  /** The footer of the one Parquet file in `dir`. */
  private def footer(dir: JPath) = {
    val Seq(name) = listing(dir).filter(n => n.endsWith(".parquet") && !n.startsWith("."))
    val reader = ParquetFileReader.open(HadoopInputFile.fromPath(new Path(dir.resolve(name).toUri), conf))
    try reader.getFooter.getFileMetaData finally reader.close()
  }

  /** Parquet's message type for `Membership.VersioningSchema`, as Spark writes it. */
  private val RlistMessage = MessageTypeParser.parseMessageType(
    """message spark_schema {
      |  optional int32 vid;
      |  optional group rlist (LIST) { repeated group list { optional int64 element; } }
      |}""".stripMargin)

  private val sets = Seq(
    3 -> IntervalSet.fromIntervals(Seq((0L, 4L), (9L, 9L))), 4 -> IntervalSet.empty, 7 -> IntervalSet.range(5, 6))

  test("the footer holds the schema Spark writes for the versioning schema") {
    val root = Files.createTempDirectory("rlist-footer")
    val rows = sets.map { case (v, s) => Row(v, s.toSeq) }
    spark.createDataFrame(rows.asJava, Membership.VersioningSchema).coalesce(1)
      .write.parquet(root.resolve("spark").toString)
    Membership.writeRlists(spark, root.resolve("driver").toString, sets)
    val (bySpark, byDriver) = (footer(root.resolve("spark")), footer(root.resolve("driver")))
    assert(byDriver.getSchema == bySpark.getSchema)
    assert(byDriver.getSchema == RlistMessage)
    val key = "org.apache.spark.sql.parquet.row.metadata"
    assert(byDriver.getKeyValueMetaData.get(key) == bySpark.getKeyValueMetaData.get(key))
  }

  test("a committed data file has the schema and row metadata Spark writes, and reads back") {
    val root = Files.createTempDirectory("rows-footer")
    val t = spark.createDataFrame(Seq[Row](
        Row(null, 2L, 7, "zeta", -0.0), Row(null, 1L, null, "\u00e9t\u00e9", Double.NaN),
        Row(null, null, 3, null, 1.5), Row(null, 1L, 7, "", null)).asJava,
      StructType(Seq(StructField("rid", LongType), StructField("pk", LongType), StructField("a1", IntegerType),
        StructField("a2", StringType), StructField("a3", DoubleType))))
    val s = new SplitByRlist(spark, root.resolve("store"))
    val co = s.checkout(s.commit(t, Seq.empty))
    co.coalesce(1).write.parquet(root.resolve("spark").toString)
    val data = root.resolve("store").resolve("part-0").resolve("data")
    val (bySpark, byDriver) = (footer(root.resolve("spark")), footer(data))
    assert(byDriver.getSchema == bySpark.getSchema)
    val key = "org.apache.spark.sql.parquet.row.metadata"
    assert(byDriver.getKeyValueMetaData.get(key) == bySpark.getKeyValueMetaData.get(key))
    assert(co.schema == spark.read.parquet(data.toString).schema)
    assert(co.collect().map(_.toString).toSet == Set(
      "[0,null,3,null,1.5]", "[1,1,null,\u00e9t\u00e9,NaN]", "[2,1,7,,null]", "[3,2,7,zeta,-0.0]"))
  }

  test("a versioning write runs no Spark job and adds one file with its checksum") {
    val dir = Files.createTempDirectory("rlist-files").resolve("versioning")
    for (n <- 1 to 2) {
      val (_, counts) = SparkJobs.count(spark)(Membership.writeRlists(spark, dir.toString, sets))
      assert(counts.jobs == 0, counts)
      val names = listing(dir)
      val parquet = names.filter(_.endsWith(".parquet"))
      assert(parquet.length == n && parquet.forall(_.startsWith("part-")), names)
      assert(names.toSet == parquet.toSet ++ parquet.map(p => s".$p.crc"), names)
    }
    val rows = spark.read.schema(Membership.VersioningSchema).parquet(dir.toString).collect()
    assert(rows.map(_.getInt(0)).sorted.toSeq == (sets ++ sets).map(_._1).sorted)
  }

  test("the session's file: FileSystem is a LocalFs") {
    assert(FileSystem.get(URI.create("file:///"), conf).isInstanceOf[LocalFs])
    assert(new Path(Files.createTempDirectory("localfs").toUri).getFileSystem(conf).isInstanceOf[LocalFs])
  }

  test("LocalFs sets the modes RawLocalFileSystem sets") {
    val root = Files.createTempDirectory("localfs-modes")
    val (ours, raw) = (new LocalFs.Raw, new RawLocalFileSystem)
    Seq(ours, raw).foreach(_.initialize(URI.create("file:///"), conf))
    for (mode <- Seq("644", "755", "640", "700", "421", "1755")) {
      val perm = new FsPermission(Integer.parseInt(mode, 8).toShort)
      val modes = Seq(ours -> "ours", raw -> "raw").map { case (fs, name) =>
        val f = root.resolve(s"$name-$mode")
        Files.createFile(f)
        fs.setPermission(new Path(f.toUri), perm)
        Files.getPosixFilePermissions(f)
      }
      assert(modes(0) == modes(1), s"mode $mode")
    }
  }

  test("a Spark-written table gets the modes RawLocalFileSystem gives a sibling write") {
    val root = Files.createTempDirectory("localfs-table")
    spark.range(10).write.parquet(root.resolve("spark").toString)
    val raw = new RawLocalFileSystem
    raw.initialize(URI.create("file:///"), conf)
    val rawDir = new Path(root.resolve("raw").resolve("sub").toUri)
    assert(raw.mkdirs(rawDir))
    raw.create(new Path(rawDir, "file")).close()
    val dirMode = Files.getPosixFilePermissions(root.resolve("raw").resolve("sub"))
    val fileMode = Files.getPosixFilePermissions(root.resolve("raw").resolve("sub").resolve("file"))
    val walk = Files.walk(root.resolve("spark"))
    val paths = try walk.iterator.asScala.toSeq finally walk.close()
    assert(paths.exists(Files.isRegularFile(_)))
    for (p <- paths)
      assert(Files.getPosixFilePermissions(p) == (if (Files.isDirectory(p)) dirMode else fileMode), p)
  }
}
