package repro.core.model

import java.nio.file.Files
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}
import repro.core.VersioningBenchmark

/** §3.3.2 SQL surface: VERSION ... OF CVD rewriting, per-version GROUP
  * BY aggregation, and the v_diff / v_intersect primitives — every
  * result checked against DuckDB over the raw membership + data tables.
  */
class VersionSqlSpec extends AnyFunSuite with SparkSpec {

  private lazy val graph = VersioningBenchmark.sci(
    numVersions = 10, base = 300, updates = 30, inserts = 10, branches = 2, seed = 9)
  private lazy val data = VersioningBenchmark.dataTableDF(spark, graph, nAttrs = 2).cache()
  private lazy val membership = VersioningBenchmark.membershipDF(spark, graph).cache()

  private lazy val vsql: VersionSql = {
    val store = new SplitByRlist(spark, Files.createTempDirectory("vsql"))
    store.load(data, graph)
    new VersionSql(spark, store)
  }

  test("SELECT over a single version matches DuckDB") {
    val df = vsql.run(
      "SELECT rid, a1 FROM VERSION 3 OF CVD interaction WHERE a1 > 50000")
    Oracle.assertEquivalent(
      df.select(col("rid").cast("string") as "rid", col("a1").cast("string") as "a1"),
      """SELECT d.rid AS rid, d.a1 AS a1
        |FROM data d JOIN membership m ON d.rid = m.rid
        |WHERE m.vid = '3' AND CAST(d.a1 AS BIGINT) > 50000""".stripMargin,
      "data" -> data, "membership" -> membership)
  }

  test("SELECT over multiple versions merges with precedence on pk") {
    val df = vsql.run("SELECT rid FROM VERSION 0, 1 OF CVD interaction")
    // pk == rid in the benchmark, so precedence merge = set union of rids.
    val expect = graph.versions(0).records.union(graph.versions(1).records)
    assert(df.count() == expect.size)
  }

  test("per-version aggregation via FROM CVD ... GROUP BY vid") {
    val df = vsql.run(
      "SELECT vid, count(*) AS n FROM CVD interaction GROUP BY vid")
    Oracle.assertEquivalent(
      df.select(col("vid").cast("string") as "vid", col("n").cast("string") as "n"),
      "SELECT vid AS vid, count(*) AS n FROM membership GROUP BY vid",
      "membership" -> membership)
  }

  test("aggregate with predicate across all versions") {
    val df = vsql.run(
      "SELECT vid, count(*) AS n FROM CVD interaction WHERE a1 > 50000 GROUP BY vid")
    Oracle.assertEquivalent(
      df.select(col("vid").cast("string") as "vid", col("n").cast("string") as "n"),
      """SELECT m.vid AS vid, count(*) AS n
        |FROM membership m JOIN data d ON d.rid = m.rid
        |WHERE CAST(d.a1 AS BIGINT) > 50000 GROUP BY m.vid""".stripMargin,
      "data" -> data, "membership" -> membership)
  }

  /** DuckDB's rows of `data` in every version of `in` and in no version
    * of `out`, checked against `df`.
    */
  private def assertRows(df: DataFrame, in: Seq[Int], out: Seq[Int]): Unit = {
    def member(v: Int) = s"d.rid IN (SELECT rid FROM membership WHERE vid = '$v')"
    val where = in.map(member) ++ out.map(v => s"NOT ${member(v)}")
    Oracle.assertEquivalent(
      df.select(df.columns.toSeq.map(c => col(c).cast("string") as c): _*),
      s"SELECT d.* FROM data d WHERE ${where.mkString(" AND ")}",
      "data" -> data, "membership" -> membership)
  }

  test("v_diff returns records in the first argument set only") {
    assertRows(vsql.vDiff(Seq(5), Seq(3)), Seq(5), Seq(3))
  }

  test("v_diff with multi-version arguments") {
    assertRows(vsql.vDiff(Seq(5, 6), Seq(0)), Seq(5, 6), Seq(0))
  }

  test("v_intersect returns records common to all versions") {
    assertRows(vsql.vIntersect(Seq(0, 4, 8)), Seq(0, 4, 8), Nil)
  }

  test("non-OrpheusDB SQL is rejected") {
    assertThrows[IllegalArgumentException](vsql.run("SELECT 1 FROM plain_table"))
  }
}
