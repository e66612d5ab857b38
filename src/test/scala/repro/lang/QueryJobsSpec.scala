package repro.lang

import java.nio.file.Files
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.lit
import org.apache.spark.sql.types.{DataType, DoubleType, LongType, StringType, StructField, StructType}
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._
import repro.{Oracle, SparkJobs, SparkSpec}
import repro.core.VersioningBenchmark
import repro.core.partition.{LyreSplit, PartitionedStore}

/** The Spark jobs of the history-analytics benchmark's three VQuel query
  * shapes over a small partitioned store, as a repository of checkouts:
  * a change to the evaluator that adds a Spark action to a shape fails
  * here. Each shape's answer is checked against DuckDB over the
  * checkouts' rows.
  */
class QueryJobsSpec extends AnyFunSuite with SparkSpec {

  private lazy val graph = VersioningBenchmark.sci(
    numVersions = 8, base = 300, updates = 30, inserts = 10, branches = 2, seed = 5)

  private lazy val store: PartitionedStore = {
    val s = new PartitionedStore(spark, Files.createTempDirectory("queryjobs"))
    val data = VersioningBenchmark.dataTableDF(spark, graph, nAttrs = 2)
    s.load(data, graph, LyreSplit.forBudget(graph, 3 * graph.numRecords / 2).scheme)
    s
  }

  private lazy val newest = Vector(graph.numVersions - 2, graph.numVersions - 1)
  private lazy val vids = (newest ++ newest.flatMap(graph.versions(_).parents)).distinct.sorted
  private def parentsIn(v: Int): Vector[Int] = graph.versions(v).parents.filter(vids.contains).toVector

  /** The two newest versions and their parents, each relation `R` a
    * partitioned-store checkout.
    */
  private lazy val repo: Repository =
    Repository(vids.map { v =>
      VersionMeta(s"v$v", s"commit $v", graph.versions(v).commitTs, "analyst",
        parentsIn(v).map(p => s"v$p"), Map("R" -> store.checkout(v)))
    })

  /** Every repository version's checkout rows as (id, rid, pk, a1, a2). */
  private lazy val rows: DataFrame =
    vids.map(v => store.checkout(v).withColumn("id", lit(s"v$v"))).reduce(_ unionByName _)

  /** The repository's parent edges as (child, parent). */
  private lazy val edges: DataFrame = {
    import spark.implicits._
    vids.flatMap(v => parentsIn(v).map(p => (s"v$v", s"v$p"))).toDF("child", "parent")
  }

  private lazy val since = graph.numVersions - 2
  private lazy val pk = graph.versions.last.records.atRank(0)
  private lazy val queried = newest.map(v => s"'v$v'").mkString("(", ", ", ")")

  // (query shape, its text, the Spark jobs it runs: 0 per unfiltered
  // count of a checkout, which its record set answers, 2 per filtered
  // count and 1 per collect, one count or collect per version it binds;
  // the type of its second column, and DuckDB's answer over `rows` and
  // `edges` with the columns id and x)
  private lazy val shapes = Seq(
    ("filtered_count",
      s"""range of V is Version(creation_ts >= $since)
         |range of E is V.Relations(name = ||R||).Tuples
         |retrieve V.id, count(E.pk where E.a1 < 50000)""".stripMargin, 4L, LongType,
      s"""SELECT id, count(*) FILTER (WHERE CAST(a1 AS BIGINT) < 50000) AS x
         |FROM rows WHERE id IN $queried GROUP BY id""".stripMargin),
    ("count_delta",
      s"""range of V is Version(creation_ts >= $since)
         |range of P is V.P(1)
         |retrieve V.id, abs(count(V.Relations.Tuples) - count(P.Relations.Tuples))""".stripMargin, 0L,
      DoubleType,
      s"""WITH n AS (SELECT id, count(*) AS n FROM rows GROUP BY id)
         |SELECT c.id AS id, CAST(abs(c.n - coalesce(sum(p.n), 0)) AS DOUBLE) AS x
         |FROM n c LEFT JOIN edges e ON e.child = c.id LEFT JOIN n p ON p.id = e.parent
         |WHERE c.id IN $queried GROUP BY c.id, c.n""".stripMargin),
    ("tuple_history",
      s"""range of V is Version(creation_ts >= $since)
         |range of R is V.Relations
         |range of E is R.Tuples
         |retrieve V.id, E.a1
         |where E.pk = $pk and R.name = ||R||""".stripMargin, 2L, LongType,
      s"""SELECT id, CAST(a1 AS BIGINT) AS x FROM rows
         |WHERE CAST(pk AS BIGINT) = $pk AND id IN $queried""".stripMargin))

  test("each history-analytics query shape runs a fixed number of Spark jobs") {
    val r = repo // loads the store outside the counted blocks
    for ((name, text, jobs, _, _) <- shapes) {
      val q = Parser.parse(text)
      val (out, n) = SparkJobs.count(spark)(Evaluator.run(r, q))
      assert(out.rows.length == 2, s"$name: ${out.rows}")
      assert(n.jobs == jobs, s"$name ran ${n.jobs} jobs")
    }
  }

  test("each history-analytics query shape answers as DuckDB does over the checkouts' rows") {
    for ((name, text, _, x, sql) <- shapes) {
      val out = Evaluator.run(repo, text)
      withClue(s"$name: ") {
        Oracle.assertEquivalent(answers(out, x), sql, "rows" -> rows, "edges" -> edges)
      }
    }
  }

  /** `out`'s rows as a DataFrame with the columns id and x, x of type `x`. */
  private def answers(out: Evaluator.Result, x: DataType): DataFrame =
    spark.createDataFrame(out.rows.map(Row.fromSeq).asJava,
      StructType(Seq(StructField("id", StringType), StructField("x", x))))
}
