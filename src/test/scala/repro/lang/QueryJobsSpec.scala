package repro.lang

import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite
import repro.{SparkJobs, SparkSpec}
import repro.core.VersioningBenchmark
import repro.core.partition.{LyreSplit, PartitionedStore}

/** The Spark jobs of the history-analytics benchmark's three VQuel query
  * shapes over a small partitioned store, as a repository of checkouts:
  * a change to the evaluator that adds a Spark action to a shape fails
  * here.
  */
class QueryJobsSpec extends AnyFunSuite with SparkSpec {

  private lazy val graph = VersioningBenchmark.sci(
    numVersions = 8, base = 300, updates = 30, inserts = 10, branches = 2, seed = 5)

  /** The two newest versions and their parents, each relation `R` a
    * partitioned-store checkout.
    */
  private lazy val repo: Repository = {
    val store = new PartitionedStore(spark, Files.createTempDirectory("queryjobs"))
    val data = VersioningBenchmark.dataTableDF(spark, graph, nAttrs = 2)
    store.load(data, graph, LyreSplit.forBudget(graph, 3 * graph.numRecords / 2).scheme)
    val newest = Vector(graph.numVersions - 2, graph.numVersions - 1)
    val vids = (newest ++ newest.flatMap(graph.versions(_).parents)).distinct.sorted
    Repository(vids.map { v =>
      VersionMeta(s"v$v", s"commit $v", graph.versions(v).commitTs, "analyst",
        graph.versions(v).parents.filter(vids.contains).map(p => s"v$p"),
        Map("R" -> store.checkout(v)))
    })
  }

  private lazy val since = graph.numVersions - 2
  private lazy val pk = graph.versions.last.records.atRank(0)

  // (query shape, its text, the Spark jobs it runs: 2 per count, 1 per
  // collect, one count or collect per version it binds)
  private lazy val shapes = Seq(
    ("filtered_count",
      s"""range of V is Version(creation_ts >= $since)
         |range of E is V.Relations(name = ||R||).Tuples
         |retrieve V.id, count(E.pk where E.a1 < 50000)""".stripMargin, 4L),
    ("count_delta",
      s"""range of V is Version(creation_ts >= $since)
         |range of P is V.P(1)
         |retrieve V.id, abs(count(V.Relations.Tuples) - count(P.Relations.Tuples))""".stripMargin, 8L),
    ("tuple_history",
      s"""range of V is Version(creation_ts >= $since)
         |range of R is V.Relations
         |range of E is R.Tuples
         |retrieve V.id, E.a1
         |where E.pk = $pk and R.name = ||R||""".stripMargin, 2L))

  test("each history-analytics query shape runs a fixed number of Spark jobs") {
    val r = repo // loads the store outside the counted blocks
    for ((name, text, jobs) <- shapes) {
      val q = Parser.parse(text)
      val (out, n) = SparkJobs.count(spark)(Evaluator.run(r, q))
      assert(out.rows.length == 2, s"$name: ${out.rows}")
      assert(n.jobs == jobs, s"$name ran ${n.jobs} jobs")
    }
  }
}
