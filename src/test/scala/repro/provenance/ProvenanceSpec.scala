package repro.provenance

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}
import repro.core.VersioningBenchmark

class ProvenanceSpec extends AnyFunSuite with SparkSpec {

  // ---- edge inference (§8.4) ------------------------------------------------

  private lazy val sci = VersioningBenchmark.sci(
    numVersions = 25, base = 500, updates = 40, inserts = 10, branches = 4, seed = 17)
  private lazy val cur = VersioningBenchmark.cur(
    numVersions = 25, base = 500, updates = 40, inserts = 10, branches = 4,
    mergeEvery = 8, seed = 17)

  private def ts(g: repro.core.VersionGraph): Map[Int, Long] =
    g.versions.map(v => v.vid -> v.commitTs).toMap

  test("pairwise overlaps from membership match driver-side intersections") {
    val m = VersioningBenchmark.membershipDF(spark, sci)
    val (ov, sizes) = LineageInference.pairwiseOverlaps(spark, m)
    val n = sci.numVersions
    for (i <- 0 until n; j <- i + 1 until n) {
      assert(ov.getOrElse((i, j), 0L) == sci.weight(i, j), s"overlap($i,$j)")
    }
    for (v <- sci.versions)
      assert(sizes(v.vid) == v.records.size)
  }

  test("pairwise overlaps on a merge graph match a DuckDB self-join") {
    import spark.implicits._
    assert(cur.hasMerges)
    val m = VersioningBenchmark.membershipDF(spark, cur)
    val (ov, sizes) = LineageInference.pairwiseOverlaps(spark, m)
    val rows = ov.toSeq ++ sizes.toSeq.map { case (v, n) => (v, v) -> n }
    Oracle.assertEquivalent(
      rows.map { case ((u, v), n) => (u.toString, v.toString, n.toString) }.toDF("v1", "v2", "n"),
      """SELECT a.vid AS v1, b.vid AS v2, count(*) AS n
        |FROM membership a JOIN membership b ON a.rid = b.rid
        |WHERE CAST(a.vid AS INT) <= CAST(b.vid AS INT)
        |GROUP BY a.vid, b.vid""".stripMargin,
      "membership" -> m)
  }

  test("inference recovers the SCI tree with high precision and recall") {
    val m = VersioningBenchmark.membershipDF(spark, sci)
    val res = LineageInference.infer(spark, m, ts(sci))
    val q = LineageInference.evaluate(res, sci)
    assert(q.precision >= 0.85, s"precision ${q.precision}")
    assert(q.recall >= 0.85, s"recall ${q.recall}")
  }

  test("inference finds merge parents in CUR workloads") {
    val m = VersioningBenchmark.membershipDF(spark, cur)
    val res = LineageInference.infer(spark, m, ts(cur))
    val q = LineageInference.evaluate(res, cur)
    assert(q.recall >= 0.6, s"recall ${q.recall}")
    // At least one inferred node has two parents.
    val parentCount = res.edges.groupBy(_.child).map(_._2.length)
    assert(parentCount.exists(_ >= 2), "no merge edges inferred")
  }

  test("a stricter containment threshold can only remove edges") {
    val m = VersioningBenchmark.membershipDF(spark, sci)
    val loose = LineageInference.infer(spark, m, ts(sci), minContainment = 0.1)
    val strict = LineageInference.infer(spark, m, ts(sci), minContainment = 0.9)
    assert(strict.edges.length <= loose.edges.length)
  }

  test("inferred parents always precede their children in time") {
    val m = VersioningBenchmark.membershipDF(spark, cur)
    val res = LineageInference.infer(spark, m, ts(cur))
    val t = ts(cur)
    for (e <- res.edges) assert(t(e.parent) < t(e.child))
  }

  // ---- structural explanation (§8.5) ---------------------------------------

  private def df(rows: Seq[(Long, String, Int)]): DataFrame = {
    import spark.implicits._
    rows.toDF("id", "name", "score")
  }

  test("identity derivation") {
    val a = df(Seq((1L, "x", 10), (2L, "y", 20)))
    val e = StructuralExplanation.explain(a, a, "id")
    assert(e.isRowPreserving)
    assert(e.label == "identity")
    assert(e.updatedRows == 0)
  }

  test("row-preserving update is detected with the changed column") {
    val a = df(Seq((1L, "x", 10), (2L, "y", 20)))
    val b = df(Seq((1L, "x", 11), (2L, "y", 21)))
    val e = StructuralExplanation.explain(a, b, "id")
    assert(e.isRowPreserving)
    assert(e.updatedRows == 2)
    assert(e.updatedColumns("score") == 2 && e.updatedColumns("name") == 0)
    assert(e.label == "update(score)")
  }

  test("column addition is classified") {
    import spark.implicits._
    val a = df(Seq((1L, "x", 10)))
    val b = Seq((1L, "x", 10, 3.5)).toDF("id", "name", "score", "bonus")
    val e = StructuralExplanation.explain(a, b, "id")
    assert(e.addedColumns == Seq("bonus"))
    assert(e.label == "add-column(bonus)")
  }

  test("column drop is classified") {
    import spark.implicits._
    val a = df(Seq((1L, "x", 10)))
    val b = Seq((1L, "x")).toDF("id", "name")
    val e = StructuralExplanation.explain(a, b, "id")
    assert(e.droppedColumns == Seq("score"))
    assert(e.label == "drop-column(score)")
  }

  test("pure row insertion / deletion") {
    val a = df(Seq((1L, "x", 10)))
    val b = df(Seq((1L, "x", 10), (2L, "y", 20)))
    val ins = StructuralExplanation.explain(a, b, "id")
    assert(ins.insertedRows == 1 && ins.label == "insert-rows")
    val del = StructuralExplanation.explain(b, a, "id")
    assert(del.deletedRows == 1 && del.label == "delete-rows")
  }

  test("mixed operations are labeled mixed") {
    val a = df(Seq((1L, "x", 10), (2L, "y", 20)))
    val b = df(Seq((1L, "x", 99), (3L, "z", 30)))
    val e = StructuralExplanation.explain(a, b, "id")
    assert(!e.isRowPreserving)
    assert(e.insertedRows == 1 && e.deletedRows == 1 && e.updatedRows == 1)
    assert(e.label == "mixed")
  }

  test("null values compare with null-safe semantics") {
    import spark.implicits._
    val a = Seq((1L, Option.empty[String]), (2L, Some("v"))).toDF("id", "name")
    val b = Seq((1L, Option.empty[String]), (2L, Option.empty[String])).toDF("id", "name")
    val e = StructuralExplanation.explain(a, b, "id")
    assert(e.updatedRows == 1)
    assert(e.updatedColumns("name") == 1)
  }
}
