package repro.core.model

import java.nio.file.Files
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkJobs, SparkSpec}
import repro.core.VersioningBenchmark
import scala.jdk.CollectionConverters._

/** Every data model must produce identical checkout results; each
  * checkout is verified against DuckDB over the raw membership + data
  * tables (a wrong join or array filter fails loudly, not silently).
  */
class CvdStoreSpec extends AnyFunSuite with SparkSpec {

  private lazy val graph = VersioningBenchmark.sci(
    numVersions = 12, base = 400, updates = 40, inserts = 10, branches = 3, seed = 5)
  private lazy val data = VersioningBenchmark.dataTableDF(spark, graph, nAttrs = 2).cache()
  private lazy val membership = VersioningBenchmark.membershipDF(spark, graph).cache()

  private def makeStores(): Seq[CvdStore] = {
    val base = Files.createTempDirectory("cvdspec")
    Seq(
      new ATablePerVersion(spark, base.resolve("atpv")),
      new CombinedTable(spark, base.resolve("comb")),
      new SplitByVlist(spark, base.resolve("svl")),
      new SplitByRlist(spark, base.resolve("srl")),
      new DeltaBased(spark, base.resolve("delta")),
    )
  }

  private lazy val stores: Seq[CvdStore] = {
    val ss = makeStores()
    ss.foreach(_.load(data, graph))
    ss
  }

  /** Loaded stores that the commit-chain tests write to. */
  private lazy val committing: Seq[CvdStore] = {
    val ss = makeStores()
    ss.foreach(_.load(data, graph))
    ss
  }

  private def asStrings(df: DataFrame): DataFrame =
    df.select(Seq("rid", "pk", "a1", "a2").map(c => col(c).cast("string") as c): _*)

  /** Version `vid` as loaded, from the raw data and membership tables. */
  private def versionSql(vid: Int): String =
    s"""SELECT d.rid AS rid, d.pk AS pk, d.a1 AS a1, d.a2 AS a2
       |FROM data d JOIN membership m ON d.rid = m.rid
       |WHERE m.vid = '$vid'""".stripMargin

  /** The rows of committed table `t` that get fresh rids: numbered from
    * `firstRid` in (pk, a1, a2) order.
    */
  private def freshSql(t: String, firstRid: Long): String =
    s"""SELECT CAST($firstRid - 1 + ROW_NUMBER() OVER (ORDER BY CAST(pk AS BIGINT),
       |  CAST(a1 AS BIGINT), CAST(a2 AS BIGINT)) AS VARCHAR) AS rid, pk, a1, a2
       |FROM $t WHERE rid IS NULL""".stripMargin

  /** The version a commit of table `t` creates. */
  private def committedSql(t: String, firstRid: Long): String =
    s"SELECT rid, pk, a1, a2 FROM $t WHERE rid IS NOT NULL UNION ALL ${freshSql(t, firstRid)}"

  /** The rows of the parent `parentSql` that committed table `t` replaced. */
  private def replacedSql(parentSql: String, t: String): String =
    s"SELECT * FROM ($parentSql) p WHERE rid NOT IN (SELECT rid FROM $t WHERE rid IS NOT NULL)"

  private def oracleCheckout(df: DataFrame, vid: Int): Unit =
    Oracle.assertEquivalent(asStrings(df), versionSql(vid),
      "data" -> data, "membership" -> membership)

  private def versionRows(vid: Int): DataFrame =
    data.join(membership.where(col("vid") === vid).select("rid"), Seq("rid"))

  /** `rows` with every `every`-th pk edited (rid nulled, a1 = -1) and
    * `fresh` rows with new pks from `firstPk` appended, materialized so the
    * store's later rewrites cannot change it.
    */
  private def edit(rows: DataFrame, every: Int, fresh: Long, firstPk: Long): DataFrame = {
    val hit = pmod(col("pk"), lit(every)) === 0
    val changed = rows.where(hit)
      .withColumn("rid", lit(null).cast("long")).withColumn("a1", lit(-1L))
    val added = spark.range(firstPk, firstPk + fresh).select(
      lit(null).cast("long") as "rid", col("id") as "pk", col("id") as "a1", lit(0L) as "a2")
    rows.where(!hit).unionByName(changed).unionByName(added).localCheckpoint()
  }

  private def files(s: CvdStore): Set[(String, Long)] = {
    val w = Files.walk(s.dir)
    try w.iterator().asScala.filter(Files.isRegularFile(_))
      .map(f => f.toString -> Files.size(f)).toSet
    finally w.close()
  }

  private def columnTypes(df: DataFrame): Seq[(String, DataType)] =
    df.schema.fields.toSeq.map(f => f.name -> f.dataType)

  for (storeIdx <- 0 until 5) {
    val names = Seq("a-table-per-version", "combined-table", "split-by-vlist",
      "split-by-rlist", "delta-based")

    test(s"${names(storeIdx)}: checkout of root version matches DuckDB") {
      oracleCheckout(stores(storeIdx).checkout(0), 0)
    }

    test(s"${names(storeIdx)}: checkout of latest version matches DuckDB") {
      val last = graph.numVersions - 1
      oracleCheckout(stores(storeIdx).checkout(last), last)
    }

    test(s"${names(storeIdx)}: checkout of a mid version matches DuckDB") {
      oracleCheckout(stores(storeIdx).checkout(6), 6)
    }

    test(s"${names(storeIdx)}: checkout has the loaded columns and types") {
      val co = stores(storeIdx).checkout(6)
      assert(columnTypes(co) == columnTypes(data))
      oracleCheckout(co, 6)
    }

    test(s"${names(storeIdx)}: building a checkout or a diff runs no Spark job") {
      val s = stores(storeIdx)
      // v6's delta chain is at most 7 long, shorter than the checkpoint interval.
      val (_, n) = SparkJobs.count(spark) { s.checkout(6); s.diffVersions(5, 3) }
      assert(n.jobs == 0)
    }

    test(s"${names(storeIdx)}: diff(v, v) is empty and diff counts match record sets") {
      val s = stores(storeIdx)
      assert(s.diffVersions(3, 3).count() == 0)
      val expected = graph.versions(5).records.diff(graph.versions(3).records).size
      assert(s.diffVersions(5, 3).count() == expected)
    }

    test(s"${names(storeIdx)}: diff of two loaded versions matches DuckDB") {
      Oracle.assertEquivalent(asStrings(stores(storeIdx).diffVersions(5, 3)),
        s"SELECT * FROM (${versionSql(5)}) a WHERE rid NOT IN (SELECT rid FROM membership WHERE vid = '3')",
        "data" -> data, "membership" -> membership)
    }

    test(s"${names(storeIdx)}: a commit on top of a commit: checkouts and diffs match DuckDB") {
      val s = committing(storeIdx)
      val last = graph.numVersions - 1
      val first = graph.allRecords.intervals.last._2 + 1
      val t1 = edit(versionRows(last), every = 7, fresh = 5, firstPk = 100000L)
      val n1 = t1.where(col("rid").isNull).count()
      val v1 = s.commit(t1, Seq(last))
      val t2 = edit(s.checkout(v1), every = 5, fresh = 3, firstPk = 200000L)
      val v2 = s.commit(t2, Seq(v1))
      val tables = Seq("data" -> data, "membership" -> membership, "t1" -> t1, "t2" -> t2)
      val c1 = committedSql("t1", first)
      for ((df, sql) <- Seq(
          s.checkout(v1) -> c1,
          s.checkout(v2) -> committedSql("t2", first + n1),
          s.diffVersions(v1, last) -> freshSql("t1", first),
          s.diffVersions(last, v1) -> replacedSql(versionSql(last), "t1"),
          s.diffVersions(v2, v1) -> freshSql("t2", first + n1),
          s.diffVersions(v1, v2) -> replacedSql(c1, "t2")))
        Oracle.assertEquivalent(asStrings(df), sql, tables: _*)
      assert(s.numVersions == graph.numVersions + 2 && s.parents(v2) == Seq(v1))
    }

    test(s"${names(storeIdx)}: commit rejects a repeated rid and a rid from a non-parent") {
      val s = stores(storeIdx)
      val parent = 3
      val rows = versionRows(parent)
      val foreignRid = graph.allRecords.diff(graph.versions(parent).records).intervals.head._1
      val before = (s.numVersions, files(s))
      for (bad <- Seq(rows.unionByName(rows.limit(1)),
                      rows.unionByName(data.where(col("rid") === foreignRid)))) {
        val e = intercept[IllegalArgumentException](s.commit(bad, Seq(parent)))
        assert(e.getMessage.contains("commit rejected"))
        assert((s.numVersions, files(s)) == before)
      }
      oracleCheckout(s.checkout(parent), parent)
    }

    test(s"${names(storeIdx)}: commit rejects a table whose columns or types are not the store's") {
      val s = stores(storeIdx)
      val parent = 3
      val rows = versionRows(parent)
      val before = (s.numVersions, files(s))
      for (bad <- Seq(rows.drop("a2"), rows.withColumn("a1", col("a1").cast("string")))) {
        val e = intercept[IllegalArgumentException](s.commit(bad, Seq(parent)))
        assert(e.getMessage.startsWith("commit rejected"))
        assert((s.numVersions, files(s)) == before)
      }
      oracleCheckout(s.checkout(parent), parent)
    }

    test(s"${names(storeIdx)}: a first commit into a fresh store fixes its columns and types") {
      val s = makeStores()(storeIdx)
      val t = spark.range(0, 50, 1, 2).select(col("id") as "pk", col("id").cast("int") as "a1",
        lit(null).cast("long") as "rid", col("id").cast("string") as "a2")
      val v = s.commit(t, Seq.empty)
      val co = s.checkout(v)
      assert(columnTypes(co) ==
        Seq("rid" -> LongType, "pk" -> LongType, "a1" -> IntegerType, "a2" -> StringType))
      Oracle.assertEquivalent(asStrings(co), freshSql("t", 0), "t" -> t)
      // Column order and nullability are not part of the fixed schema.
      val kept = co.where(col("pk") < 40).select("a2", "a1", "pk", "rid").localCheckpoint()
      val v2 = s.commit(kept, Seq(v))
      assert(columnTypes(s.checkout(v2)) == columnTypes(co))
      Oracle.assertEquivalent(asStrings(s.checkout(v2)), "SELECT rid, pk, a1, a2 FROM k", "k" -> kept)
      intercept[IllegalArgumentException](s.commit(t.withColumn("a1", col("a1").cast("long")), Seq(v)))
    }
  }

  test("commit of an unmodified checkout adds a version with the same content") {
    val base = Files.createTempDirectory("cvdcommit")
    val s = new SplitByRlist(spark, base)
    s.load(data, graph)
    val last = graph.numVersions - 1
    val t = s.checkout(last)
    val newVid = s.commit(t, Seq(last))
    assert(newVid == graph.numVersions)
    val again = s.checkout(newVid)
    assert(again.count() == graph.versions(last).records.size)
    assert(again.join(t, Seq("rid"), "left_anti").count() == 0)
    assert(s.parents(newVid) == Seq(last))
  }

  test("commit with modified rows assigns fresh rids to them") {
    val base = Files.createTempDirectory("cvdmod")
    val s = new SplitByRlist(spark, base)
    s.load(data, graph)
    val last = graph.numVersions - 1
    val t = s.checkout(last)
    // Modify 10% of rows: null the rid (middleware contract for changes).
    val modified = t.withColumn("rid",
      when(pmod(col("pk"), lit(10)) === 0, lit(null)).otherwise(col("rid")))
      .withColumn("a1", when(pmod(col("pk"), lit(10)) === 0, lit(-1L)).otherwise(col("a1")))
    val nMod = modified.where(col("rid").isNull).count()
    val newVid = s.commit(modified, Seq(last))
    val out = s.checkout(newVid)
    assert(out.count() == t.count())
    assert(out.where(col("a1") === -1L).count() == nMod)
    // Fresh rids do not collide with existing ones.
    val maxOld = graph.allRecords.intervals.last._2
    assert(out.where(col("rid") > maxOld).count() == nMod)
  }

  test("commits of one table with repeated pks assign the same rids in two fresh stores") {
    val t = spark.range(0, 2000, 1, 8).select(lit(null).cast("long") as "rid",
      pmod(col("id"), lit(10L)) as "pk", col("id") as "a1", pmod(col("id") * 7, lit(13L)) as "a2")
    // The second store gets the rows in reverse order.
    val assigned = Seq(t, t.sort(col("a1").desc)).map { rows =>
      val s = new SplitByRlist(spark, Files.createTempDirectory("cvddet"))
      s.checkout(s.commit(rows, Seq.empty)).collect().map(_.toSeq).toSet
    }
    assert(assigned(0).size == 2000)
    assert((assigned(0) diff assigned(1)).size == 0, "rows with different rids")
  }

  test("commit on delta-based store picks the max-overlap parent as base") {
    val base = Files.createTempDirectory("cvddelta")
    val s = new DeltaBased(spark, base)
    s.load(data, graph)
    val t = s.checkout(4)
    val newVid = s.commit(t, Seq(4))
    val out = s.checkout(newVid)
    assert(out.count() == graph.versions(4).records.size)
  }

  test("a-table-per-version uses ~avg-versions-per-record times more storage") {
    val atpv = stores(0).storageBytes.toDouble
    val split = stores(3).storageBytes.toDouble
    val sharing = graph.numBipartiteEdges.toDouble / graph.numRecords
    assert(atpv > split * (sharing / 3),
      s"expected atpv ($atpv) >> split-by-rlist ($split), sharing=$sharing")
  }

  test("split models share storage within 2x of each other") {
    val svl = stores(2).storageBytes.toDouble
    val srl = stores(3).storageBytes.toDouble
    assert(math.abs(svl - srl) / math.max(svl, srl) < 0.5,
      s"split-by-vlist=$svl split-by-rlist=$srl")
  }
}
