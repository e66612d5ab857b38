package repro.core.partition

import java.nio.file.Files
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.BroadcastExchangeExec
import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._
import repro.{Oracle, SparkJobs, SparkSpec}
import repro.core.{IntervalSet, Membership, Version, VersionGraph, VersioningBenchmark}
import repro.core.model.{CvdStore, SplitByRlist}

class PartitionedStoreSpec extends AnyFunSuite with SparkSpec {

  private lazy val graph = VersioningBenchmark.sci(
    numVersions = 15, base = 400, updates = 50, inserts = 10, branches = 3, seed = 3)
  private lazy val data = VersioningBenchmark.dataTableDF(spark, graph, nAttrs = 2).cache()
  private lazy val membership = VersioningBenchmark.membershipDF(spark, graph).cache()
  private lazy val loadScheme = LyreSplit.forBudget(graph, 2 * graph.numRecords).scheme

  private lazy val store: PartitionedStore = {
    val s = new PartitionedStore(spark, Files.createTempDirectory("pstore"))
    s.load(data, graph, loadScheme)
    s
  }

  private def versionRows(vid: Int): DataFrame =
    data.join(membership.where(col("vid") === vid).select("rid"), Seq("rid"))

  /** v14 with every 7th pk edited (rid nulled) and 5 rows added. */
  private lazy val edited: DataFrame = {
    val hit = pmod(col("pk"), lit(7)) === 0
    val added = spark.range(100000L, 100005L).select(
      lit(null).cast("long") as "rid", col("id") as "pk", col("id") as "a1", lit(0L) as "a2")
    versionRows(14).withColumn("rid", when(hit, lit(null).cast("long")).otherwise(col("rid")))
      .withColumn("a1", when(hit, lit(-1L)).otherwise(col("a1")))
      .unionByName(added).localCheckpoint()
  }
  private lazy val firstRid = graph.allRecords.intervals.last._2 + 1

  /** The merge's parents: v14 and the newest version in another partition. */
  private lazy val mergeA = 14
  private lazy val mergeB =
    (0 until 14).filter(v => loadScheme.pidOf(v) != loadScheme.pidOf(mergeA)).max
  /** Every row of `mergeA` plus the rows of `mergeB` it lacks. */
  private lazy val merged: DataFrame = versionRows(mergeA)
    .unionByName(versionRows(mergeB).join(versionRows(mergeA).select("rid"), Seq("rid"), "left_anti"))
    .localCheckpoint()

  /** A second store under `loadScheme` that takes `edited` onto v14 as
    * v15 and `merged` as v16, and the graph of its 17 versions as the
    * test derives them.
    */
  private lazy val (committed, committedGraph) = {
    val s = new PartitionedStore(spark, Files.createTempDirectory("pstorec"))
    s.load(data, graph, loadScheme)
    assert(s.commit(edited, Seq(14)) == 15 && s.commit(merged, Seq(mergeA, mergeB)) == 16)
    def rids(df: DataFrame) = IntervalSet.fromSeq(
      df.where(col("rid").isNotNull).select("rid").collect().map(_.getLong(0)).toSeq)
    val nFresh = edited.where(col("rid").isNull).count()
    val g = VersionGraph(graph.versions ++ Seq(
      Version(15, Vector(14), rids(edited).union(IntervalSet.range(firstRid, firstRid + nFresh - 1)), 15),
      Version(16, Vector(mergeA, mergeB), rids(merged), 16)))
    (s, g)
  }

  private def versionSql(vid: Int): String =
    s"""SELECT d.rid AS rid, d.pk AS pk, d.a1 AS a1, d.a2 AS a2
       |FROM data d JOIN membership m ON d.rid = m.rid
       |WHERE m.vid = '$vid'""".stripMargin

  /** The rows of `edited` given fresh rids: numbered in (pk, a1, a2) order. */
  private lazy val freshSql =
    s"""SELECT CAST($firstRid - 1 + ROW_NUMBER() OVER (ORDER BY CAST(pk AS BIGINT),
       |  CAST(a1 AS BIGINT), CAST(a2 AS BIGINT)) AS VARCHAR) AS rid, pk, a1, a2
       |FROM t15 WHERE rid IS NULL""".stripMargin

  /** Version `vid` of `committed`, loaded or committed. */
  private def expectedSql(vid: Int): String = vid match {
    case 15 => s"SELECT rid, pk, a1, a2 FROM t15 WHERE rid IS NOT NULL UNION ALL $freshSql"
    case 16 => "SELECT rid, pk, a1, a2 FROM t16"
    case v  => versionSql(v)
  }

  private def oracleCheck(df: DataFrame, sql: String): Unit =
    Oracle.assertEquivalent(
      df.select(Seq("rid", "pk", "a1", "a2").map(c => col(c).cast("string") as c): _*), sql,
      "data" -> data, "membership" -> membership, "t15" -> edited, "t16" -> merged)

  private def oracleCheckout(vid: Int): Unit = oracleCheck(store.checkout(vid), versionSql(vid))

  /** Each partition's data files hold exactly the records of its versions in `g`. */
  private def assertPartitionFiles(s: PartitionedStore, g: VersionGraph): Unit = {
    val scheme = s.currentScheme
    for (pid <- 0 until scheme.numPartitions) {
      val expected = CostModel.partitionRecords(g, scheme.versionsOf(pid))
      val rids = spark.read.parquet(s.dir.resolve(s"part-$pid").resolve("data").toString)
        .select("rid").collect().map(_.getLong(0)).toSeq
      assert(rids.length == expected.size && IntervalSet.fromSeq(rids) == expected,
        s"partition $pid records")
    }
  }

  /** Each partition's versioning table holds one row per member version,
    * its rlist exactly the version's records in `g` in ascending order,
    * in `files(pid)` Parquet files: one per write to the partition.
    */
  private def assertVersioning(s: PartitionedStore, g: VersionGraph, files: Int => Int): Unit = {
    val scheme = s.currentScheme
    for (pid <- 0 until scheme.numPartitions) {
      val dir = s.dir.resolve(s"part-$pid").resolve("versioning")
      val rows = spark.read.parquet(dir.toString).collect().map(r => r.getInt(0) -> r.getSeq[Long](1))
      assert(rows.map(_._1).sorted.toSeq == scheme.versionsOf(pid).sorted, s"partition $pid vids")
      for ((v, rlist) <- rows) assert(rlist == g.versions(v).records.toSeq, s"v$v rlist")
      val listing = Files.list(dir)
      val n = try listing.iterator.asScala.count(_.getFileName.toString.endsWith(".parquet"))
        finally listing.close()
      assert(n == files(pid), s"partition $pid versioning files")
    }
  }

  /** Every version of `s` at once, tagged with its vid, against DuckDB. */
  private def oracleEveryVersion(s: PartitionedStore, n: Int): Unit = {
    val vids = 0 until n
    Oracle.assertEquivalent(
      vids.map(v => s.checkout(v).withColumn("vid", lit(v))).reduce(_ unionByName _)
        .select(Seq("vid", "rid", "pk", "a1", "a2").map(c => col(c).cast("string") as c): _*),
      vids.map(v => s"SELECT '$v' AS vid, * FROM (${expectedSql(v)}) v$v").mkString(" UNION ALL "),
      "data" -> data, "membership" -> membership, "t15" -> edited, "t16" -> merged)
  }

  /** The checks every migration must pass: partition files, versioning
    * rows in one file per partition, and every version's checkout.
    */
  private def assertMigrated(s: PartitionedStore): Unit = {
    assertPartitionFiles(s, graph)
    assertVersioning(s, graph, _ => 1)
    oracleEveryVersion(s, graph.numVersions)
  }

  /** A store holding `graph` loaded under `scheme`. */
  private def loaded(scheme: PartitionScheme): PartitionedStore = {
    val s = new PartitionedStore(spark, Files.createTempDirectory("pstorem"))
    s.load(data, graph, scheme)
    s
  }

  /** Every file under the store's directory, by relative path, with its size. */
  private def storeFiles(s: PartitionedStore): Map[String, Long] = {
    val walk = Files.walk(s.dir)
    try walk.iterator.asScala.filter(Files.isRegularFile(_))
      .map(p => s.dir.relativize(p).toString -> Files.size(p)).toMap
    finally walk.close()
  }

  /** The Parquet data file names of partition `pid`. */
  private def dataFileNames(s: PartitionedStore, pid: Int): Set[String] = {
    val listing = Files.list(s.dir.resolve(s"part-$pid").resolve("data"))
    try listing.iterator.asScala.map(_.getFileName.toString).filter(_.endsWith(".parquet")).toSet
    finally listing.close()
  }

  /** LyreSplit schemes of `graph` with 2 and 4 partitions. */
  private lazy val (twoParts, fourParts) = {
    val byCount = Seq(0.5, 0.6).map(d => LyreSplit.run(graph, d).scheme).groupBy(_.numPartitions)
    (byCount(2).head, byCount(4).head)
  }

  /** The data rows a migration following `plan` must write: every row of
    * each partition it rebuilds, and only the inserts of each partition
    * whose mapped old partition it keeps whole. (The driver writes the
    * versioning rows, which `assertVersioning` checks.)
    */
  private def predictedRows(newScheme: PartitionScheme, plan: Migration.Plan): Long = {
    val sizes = CostModel.partitionSizes(graph, newScheme)
    plan.assignments.map { a =>
      if (a.fromOldPid.isDefined && a.deleteRecords == 0) a.insertRecords else sizes(a.newPid)
    }.sum
  }

  /** Per-partition on-disk sizes in bytes. */
  private def partitionBytes(s: PartitionedStore): Vector[Long] =
    (0 until s.currentScheme.numPartitions).toVector.map(p => CvdStore.du(s.dir.resolve(s"part-$p")))

  /** Run `body` with Spark's default broadcast threshold, the one the
    * program's own session (`Jobs.session`) uses.
    */
  private def withDefaultBroadcast[T](body: => T): T = {
    val key = "spark.sql.autoBroadcastJoinThreshold"
    val was = spark.conf.get(key)
    spark.conf.unset(key)
    try body finally spark.conf.set(key, was)
  }

  /** The broadcast exchanges of `plan`, adaptive query stages included. */
  private def broadcasts(plan: SparkPlan): Seq[SparkPlan] =
    new AdaptiveSparkPlanHelper {}.collect(plan) { case b: BroadcastExchangeExec => b }

  for (vid <- Seq(0, 7, 14)) {
    test(s"partitioned checkout of v$vid matches DuckDB") { oracleCheckout(vid) }
  }

  test("a commit lands in its parent's partition; its checkout and diffs match DuckDB") {
    assert(loadScheme.numPartitions > 1)
    assert(committed.currentScheme.pidOf(15) == loadScheme.pidOf(14))
    oracleCheck(committed.checkout(15), expectedSql(15))
    oracleCheck(committed.diffVersions(15, 14), freshSql)
    oracleCheck(committed.diffVersions(14, 15),
      s"SELECT * FROM (${versionSql(14)}) p WHERE rid NOT IN (SELECT rid FROM t15 WHERE rid IS NOT NULL)")
  }

  test("a merge of parents in two partitions checks out and diffs correctly") {
    val home = committed.currentScheme.pidOf(16)
    assert(Set(loadScheme.pidOf(mergeA), loadScheme.pidOf(mergeB)).contains(home))
    // The merge inherits records its partition did not hold before.
    val before = CostModel.partitionRecords(graph, loadScheme.versionsOf(home))
    assert(!committedGraph.versions(16).records.diff(before).isEmpty)
    oracleCheck(committed.checkout(16), expectedSql(16))
    oracleCheck(committed.diffVersions(16, mergeA),
      s"SELECT * FROM (${versionSql(mergeB)}) b WHERE rid NOT IN (SELECT rid FROM membership WHERE vid = '$mergeA')")
  }

  test("a commit onto one parent runs one Spark job and shuffles nothing, partitioned or not") {
    val unpartitioned = new SplitByRlist(spark, Files.createTempDirectory("srl1"))
    unpartitioned.load(data, graph)
    for (s <- Seq(loaded(loadScheme), unpartitioned)) {
      val (v, n) = SparkJobs.count(spark)(s.commit(edited, Seq(14)))
      assert(n.jobs == 1 && n.shuffleWriteBytes == 0, n)
      oracleCheck(s.checkout(v), expectedSql(15))
    }
  }

  test("a first commit into an empty store runs one Spark job") {
    val s = new PartitionedStore(spark, Files.createTempDirectory("pstoree"))
    val t = edited.withColumn("rid", lit(null).cast("long")).localCheckpoint()
    val (v, n) = SparkJobs.count(spark)(s.commit(t, Seq.empty))
    assert(n.jobs == 1 && n.shuffleWriteBytes == 0, n)
    assert(s.checkout(v).count() == t.count())
  }

  test("a merge across partitions runs two Spark jobs, the second writing the rows its partition lacks") {
    val s = loaded(loadScheme)
    val (v, n) = SparkJobs.count(spark)(s.commit(merged, Seq(mergeA, mergeB)))
    val lacking = committedGraph.versions(16).records
      .diff(CostModel.partitionRecords(graph, loadScheme.versionsOf(s.currentScheme.pidOf(v))))
    assert(n.jobs == 2 && n.shuffleWriteBytes == 0 && n.rowsWritten == lacking.size, n)
    oracleCheck(s.checkout(v), expectedSql(16))
  }

  test("a commit whose data write fails leaves no new file, and every version reads as before") {
    val s = loaded(loadScheme)
    val before = storeFiles(s)
    // A file in place of the data directory: unlike a read-only mode, it
    // stops the write for every user, root included.
    val data = s.dir.resolve(s"part-${loadScheme.pidOf(14)}").resolve("data")
    val aside = data.resolveSibling("data-aside")
    Files.move(data, aside)
    Files.createFile(data)
    try intercept[java.io.IOException](s.commit(edited, Seq(14)))
    finally { Files.delete(data); Files.move(aside, data) }
    assert(storeFiles(s) == before)
    assert(s.numVersions == graph.numVersions && s.currentScheme == loadScheme)
    oracleEveryVersion(s, graph.numVersions)
  }

  test("partition files hold exactly the scheme's record sets") {
    assertPartitionFiles(store, graph)
    assertPartitionFiles(committed, committedGraph)
  }

  test("building a partitioned checkout, diff, data or withVid runs no Spark job") {
    val s = store
    val (_, n) = SparkJobs.count(spark) { s.checkout(7); s.diffVersions(14, 7); s.data; s.withVid() }
    assert(n.jobs == 0)
  }

  test("withVid tags each version's rows with its vid across partitions, as in DuckDB") {
    assert(store.currentScheme.numPartitions > 1)
    Oracle.assertEquivalent(
      store.withVid().select(Seq("vid", "rid", "pk", "a1", "a2").map(c => col(c).cast("string") as c): _*),
      "SELECT m.vid AS vid, d.rid AS rid, d.pk AS pk, d.a1 AS a1, d.a2 AS a2 FROM data d JOIN membership m ON d.rid = m.rid",
      "data" -> data, "membership" -> membership)
  }

  test("a partitioned checkout's collect runs one Spark job and broadcasts nothing") {
    val s = store
    withDefaultBroadcast {
      val df = s.checkout(7)
      val (rows, n) = SparkJobs.count(spark)(df.collect())
      assert(n.jobs == 1 && n.shuffleWriteBytes == 0, n)
      assert(rows.length == graph.versions(7).records.size)
      assert(broadcasts(df.queryExecution.executedPlan).isEmpty, df.queryExecution.executedPlan)
    }
    oracleCheckout(7)
  }

  test("a partitioned diff's collect runs one Spark job") {
    val s = store
    val (rows, n) = SparkJobs.count(spark)(s.diffVersions(14, 7).collect())
    assert(n.jobs == 1 && n.shuffleWriteBytes == 0, n)
    assert(rows.length == graph.versions(14).records.diff(graph.versions(7).records).size)
  }

  test("versioning rows are each version's records in ascending order, one file per write") {
    assertVersioning(store, graph, _ => 1)
    val home = Seq(15, 16).map(committed.currentScheme.pidOf)
    assertVersioning(committed, committedGraph, pid => 1 + home.count(_ == pid))
  }

  test("an unpartitioned load and a migration between LyreSplit schemes shuffle nothing") {
    data.count()
    val s = new PartitionedStore(spark, Files.createTempDirectory("pstore0"))
    val (_, load) = SparkJobs.count(spark)(s.load(data, graph))
    assert(load.shuffleWriteBytes == 0)
    // The migration routes each old partition's rows to their new
    // partitions with no join, so it shuffles nothing even though this
    // suite's session never broadcasts.
    val m = new PartitionedStore(spark, Files.createTempDirectory("pstorem"))
    m.load(data, graph, loadScheme)
    val target = LyreSplit.run(graph, 0.8).scheme
    assert(target != loadScheme)
    val (_, migrate) = SparkJobs.count(spark)(
      m.migrate(target, Migration.plan(graph, loadScheme, target)))
    assert(migrate.shuffleWriteBytes == 0)
    assertVersioning(m, graph, _ => 1)
    oracleCheck(m.checkout(9), versionSql(9))
  }

  test("migration to a new scheme preserves checkout results") {
    val newScheme = LyreSplit.run(graph, 0.8).scheme
    val plan = Migration.plan(graph, store.currentScheme, newScheme)
    store.migrate(newScheme, plan)
    assert(store.currentScheme == newScheme)
    oracleCheckout(3)
    oracleCheckout(14)
  }

  test("after commits, migration to a scheme with the new versions keeps every version") {
    val newScheme = LyreSplit.run(committedGraph, 0.8).scheme
    assert(newScheme != committed.currentScheme)
    committed.migrate(newScheme, Migration.plan(committedGraph, committed.currentScheme, newScheme))
    assert(committed.currentScheme == newScheme)
    assertPartitionFiles(committed, committedGraph)
    assertVersioning(committed, committedGraph, _ => 1)
    oracleEveryVersion(committed, committedGraph.numVersions)
  }

  test("migrations to schemes of different partition counts run the same jobs, at most 2") {
    data.count()
    val targets = Seq(0.8, 0.9).map(d => LyreSplit.run(graph, d).scheme)
    assert(targets.map(_.numPartitions).distinct.length == 2)
    val counts = targets.map { target =>
      val s = loaded(loadScheme)
      val plan = Migration.plan(graph, loadScheme, target)
      assert(plan.assignments.exists(a => a.fromOldPid.isEmpty || a.deleteRecords > 0))
      val (_, n) = SparkJobs.count(spark)(s.migrate(target, plan))
      assertMigrated(s)
      n
    }
    assert(counts.forall(_.jobs == 1), counts)
    assert(counts.forall(_.shuffleWriteBytes == 0), counts)
  }

  test("a 2→4→2 round trip writes the rows its plans predict and keeps insert-only files") {
    val s = loaded(twoParts)
    val up = Migration.plan(graph, twoParts, fourParts)
    val down = Migration.plan(graph, fourParts, twoParts)
    // Up rebuilds every partition; down keeps each mapped old partition whole.
    assert(up.assignments.forall(a => a.fromOldPid.isEmpty || a.deleteRecords > 0))
    assert(down.assignments.forall(a => a.fromOldPid.isDefined && a.deleteRecords == 0))
    assert(down.assignments.exists(_.insertRecords > 0))
    for ((target, plan) <- Seq(fourParts -> up, twoParts -> down)) {
      val kept = plan.assignments.collect { case a if a.deleteRecords == 0 && a.fromOldPid.isDefined =>
        a.newPid -> dataFileNames(s, a.fromOldPid.get)
      }
      val (_, n) = SparkJobs.count(spark)(s.migrate(target, plan))
      assert(n.rowsWritten == predictedRows(target, plan))
      for ((k, names) <- kept) assert(names.nonEmpty && names.subsetOf(dataFileNames(s, k)), s"partition $k files")
      assert(s.currentScheme == target)
      assertMigrated(s)
    }
  }

  test("a chain of LyreSplit schemes keeps every partition's files, versioning and checkouts") {
    val s = loaded(loadScheme)
    val chain = Seq(0.7, 0.9, 0.5, 0.85).map(d => LyreSplit.run(graph, d).scheme)
    assert(chain.map(_.numPartitions).distinct.length == chain.length)
    for ((from, to) <- (loadScheme +: chain).zip(chain)) {
      val plan = Migration.plan(graph, from, to)
      val (_, n) = SparkJobs.count(spark)(s.migrate(to, plan))
      assert(n.rowsWritten == predictedRows(to, plan))
      assertMigrated(s)
    }
  }

  test("a plan that does not fit the schemes is rejected, naming the partition, before any write") {
    val s = loaded(loadScheme)
    val before = storeFiles(s)
    def plan(as: (Int, Option[Int])*) =
      Migration.Plan(as.map { case (k, j) => Migration.Assignment(k, j, 0L, 0L) }.toVector)
    val n = twoParts.numPartitions
    val bad = Seq(
      plan(0 -> Some(0)) -> "new partition 1 ",
      plan(0 -> Some(0), 0 -> Some(1), 1 -> None) -> "new partition 0 ",
      plan(0 -> Some(0), 1 -> Some(0), n -> None) -> s"new partition $n ",
      plan(0 -> Some(loadScheme.numPartitions), 1 -> None) -> s"old partition ${loadScheme.numPartitions},",
      plan(0 -> Some(1), 1 -> Some(1)) -> "old partition 1 ")
    for ((p, names) <- bad) {
      val e = intercept[IllegalArgumentException](s.migrate(twoParts, p))
      assert(e.getMessage.contains(names), e.getMessage)
      assert(s.currentScheme == loadScheme)
      assert(storeFiles(s) == before)
    }
    oracleCheck(s.checkout(7), versionSql(7))
  }

  test("a versioning write that throws partway leaves no file, and the store reads as before") {
    val s = loaded(loadScheme)
    val before = storeFiles(s)
    val table = s.dir.resolve("part-0").resolve("versioning").toString
    val rows = (0 until graph.numVersions).map(v => v -> graph.versions(v).records)
    val failing = LazyList.from(rows).map { case (v, r) => if (v == 9) sys.error("injected") else v -> r }
    val e = intercept[RuntimeException](Membership.writeRlists(spark, table, failing))
    assert(e.getMessage == "injected")
    assert(storeFiles(s) == before)
    assertVersioning(s, graph, _ => 1)
    oracleEveryVersion(s, graph.numVersions)
  }

  test("single-partition scheme equals unpartitioned storage footprint") {
    val s = new PartitionedStore(spark, Files.createTempDirectory("pstore1"))
    s.load(data, graph, PartitionScheme.single(graph.numVersions))
    assert(partitionBytes(s).length == 1)
    oracleCheck(s.checkout(5), versionSql(5))
  }
}
