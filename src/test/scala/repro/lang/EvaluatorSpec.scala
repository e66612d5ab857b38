package repro.lang

import java.nio.file.Files
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, lit, pmod, udf, when}
import org.apache.spark.sql.types.{DoubleType, LongType, StringType, StructField, StructType}
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._
import repro.{Oracle, SparkJobs, SparkSpec}
import repro.core.VersioningBenchmark
import repro.core.model.{ATablePerVersion, CombinedTable, CvdStore, DeltaBased, SplitByRlist, SplitByVlist}
import repro.core.partition.{Migration, PartitionScheme, PartitionedStore}

/** Executes the thesis's example queries (§6.3) against the Fig 6.1-style
  * repository: versions v01 → {v02, v03} with Employee/Department
  * relations evolving across versions. Then counts and aggregates over
  * relations that are store checkouts, in every layout, and over
  * DataFrames derived from them, each checked against DuckDB.
  */
class EvaluatorSpec extends AnyFunSuite with SparkSpec {

  private def emp(rows: Seq[(String, String, String, Int)]): DataFrame = {
    import spark.implicits._
    rows.toDF("employee_id", "first_name", "last_name", "age")
  }
  private def dept(rows: Seq[(String, String)]): DataFrame = {
    import spark.implicits._
    rows.toDF("dept_id", "dept_name")
  }

  private lazy val repo: Repository = {
    val e1 = emp(Seq(("e01", "Ann", "Smith", 34), ("e02", "Bob", "Jones", 51),
                     ("e03", "Cid", "Smith", 28)))
    val d1 = dept(Seq(("d01", "Sales"), ("d02", "Eng")))
    // v02: Ann's age corrected; one employee added.
    val e2 = emp(Seq(("e01", "Ann", "Smith", 35), ("e02", "Bob", "Jones", 51),
                     ("e03", "Cid", "Smith", 28), ("e04", "Dee", "Wu", 61)))
    // v03: employee e02 removed.
    val e3 = emp(Seq(("e01", "Ann", "Smith", 34), ("e03", "Cid", "Smith", 28)))
    Repository(Vector(
      VersionMeta("v01", "initial import", 100, "Alice", Vector.empty,
        Map("Employee" -> e1, "Department" -> d1)),
      VersionMeta("v02", "fix ages, add Dee", 200, "Bob", Vector("v01"),
        Map("Employee" -> e2, "Department" -> d1)),
      VersionMeta("v03", "drop Bob", 300, "Alice", Vector("v01"),
        Map("Employee" -> e3)),
      VersionMeta("v04", "merge", 400, "Carol", Vector("v02", "v03"),
        Map("Employee" -> e2, "Department" -> d1)),
    ))
  }

  private def run(q: String): Evaluator.Result = Evaluator.run(repo, q)

  test("Query 6.1: author of a version by id") {
    val r = run(
      """range of V is Version
        |retrieve V.author.name
        |where V.id = ||v01||""".stripMargin)
    assert(r.rows == Vector(Vector("Alice")))
  }

  test("Query 6.2: commits by author after a timestamp") {
    val r = run(
      """range of V is Version
        |retrieve V.id
        |where V.author.name = ||Alice|| and V.creation_ts >= 200""".stripMargin)
    assert(r.rows == Vector(Vector("v03")))
  }

  test("Query 6.3: versions containing the Employee relation") {
    val r = run(
      """range of V is Version
        |range of R is V.Relations
        |retrieve V.commit_ts
        |where R.name = ||Employee||""".stripMargin)
    assert(r.rows.flatten.toSet == Set(100L, 200L, 300L, 400L))
  }

  test("Query 6.4: commit history sorted descending") {
    val r = run(
      """range of V is Version
        |range of R is V.Relations
        |retrieve V.creation_ts, V.author.name
        |where R.name = ||Employee||
        |sort by V.creation_ts desc""".stripMargin)
    assert(r.rows.map(_.head) == Vector(400L, 300L, 200L, 100L))
  }

  test("Query 6.5: history of one tuple across versions") {
    val r = run(
      """range of V is Version
        |range of R is V.Relations
        |range of E is R.Tuples
        |retrieve E.age, V.commit_id
        |where E.employee_id = ||e01|| and R.name = ||Employee||
        |sort by V.creation_ts""".stripMargin)
    assert(r.rows == Vector(Vector(34, "v01"), Vector(35, "v02"),
      Vector(34, "v03"), Vector(35, "v04")))
  }

  test("Query 6.6 shape: tuples differing between two versions") {
    val r = run(
      """range of E1 is Version(id = ||v01||).Relations(name = ||Employee||).Tuples
        |range of E2 is Version(id = ||v02||).Relations(name = ||Employee||).Tuples
        |retrieve E1.employee_id
        |where E1.employee_id = E2.employee_id and E1.all != E2.all""".stripMargin)
    assert(r.rows == Vector(Vector("e01"))) // only Ann's age changed
  }

  test("Query 6.7: count of relations per version") {
    val r = run(
      """range of V is Version
        |range of R is V.Relations
        |retrieve V.id, count(R)""".stripMargin)
    val m = r.rows.map(row => row(0) -> row(1)).toMap
    assert(m == Map("v01" -> 2L, "v02" -> 2L, "v03" -> 1L, "v04" -> 2L))
  }

  test("Query 6.8: versions with an exact filtered tuple count") {
    val r = run(
      """range of V is Version
        |range of E is V.Relations(name = ||Employee||).Tuples
        |retrieve V.commit_id
        |where count(E.employee_id where E.last_name = ||Smith||) = 2""".stripMargin)
    assert(r.rows.flatten.toSet == Set("v01", "v02", "v03", "v04"))
  }

  test("Query 6.11 shape: version with most employees above an age") {
    val r = run(
      """range of V is Version
        |range of E is V.Relations(name = ||Employee||).Tuples
        |retrieve V.id, count(E.employee_id where E.age > 50)""".stripMargin)
    val m = r.rows.map(row => row(0) -> row(1)).toMap
    assert(m("v02") == 2L && m("v03") == 0L)
  }

  test("Query 6.13: neighbors within 2 hops with a tuple-count filter") {
    val r = run(
      """range of V is Version(id = ||v03||)
        |range of N is V.N(1)
        |retrieve N.id""".stripMargin)
    assert(r.rows.flatten.toSet == Set("v01", "v04"))
  }

  test("Query 6.14: versions whose delta from the parent exceeds a threshold") {
    val r = run(
      """range of V is Version
        |range of P is V.P(1)
        |retrieve unique V.id
        |where abs(count(V.Relations.Tuples) - count(P.Relations.Tuples)) >= 2""".stripMargin)
    // v03 (2+0 tuples) vs parent v01 (3+2): |2-5| = 3 >= 2.
    // v04 (4+2=6) vs v03 (2): 4 >= 2. v02 differs from v01 by 1.
    // v01 has no parent: count over the empty P domain is 0, so its own
    // 5 tuples count as the delta (documented semantics for roots).
    assert(r.rows.flatten.toSet == Set("v01", "v03", "v04"))
  }

  test("ancestors traversal P() is transitive") {
    val r = run(
      """range of V is Version(id = ||v04||)
        |range of P is V.P()
        |retrieve P.id""".stripMargin)
    assert(r.rows.flatten.toSet == Set("v01", "v02", "v03"))
  }

  test("descendants traversal D()") {
    val r = run(
      """range of V is Version(id = ||v01||)
        |range of D is V.D()
        |retrieve D.id""".stripMargin)
    assert(r.rows.flatten.toSet == Set("v02", "v03", "v04"))
  }

  test("unique deduplicates result rows") {
    val r = run(
      """range of V is Version
        |range of R is V.Relations
        |retrieve unique V.id
        |where R.name = ||Department||""".stripMargin)
    assert(r.rows.flatten == Vector("v01", "v02", "v04"))
  }

  test("sum/min/max aggregates over tuples") {
    val r = run(
      """range of V is Version(id = ||v01||)
        |range of E is V.Relations(name = ||Employee||).Tuples
        |retrieve sum(E.age), min(E.age), max(E.age)""".stripMargin)
    assert(r.rows == Vector(Vector(113.0, 28.0, 51.0)))
  }

  test("aggregate result agrees with a direct Spark computation") {
    val direct = repo.byId("v02").relations("Employee")
      .where(org.apache.spark.sql.functions.col("age") > 50).count()
    val r = run(
      """range of V is Version(id = ||v02||)
        |range of E is V.Relations(name = ||Employee||).Tuples
        |retrieve count(E.employee_id where E.age > 50)""".stripMargin)
    assert(r.rows == Vector(Vector(direct)))
  }

  /** One version holding relation T (pk, a) in which one `a` is NULL. */
  private lazy val nullRepo: (Repository, DataFrame) = {
    import spark.implicits._
    val t = Seq((1L, Some(5L)), (2L, None), (3L, Some(7L)), (4L, Some(5L))).toDF("pk", "a")
    (Repository(Vector(VersionMeta("v1", "nulls", 1, "Alice", Vector.empty, Map("T" -> t)))), t)
  }

  /** DuckDB's answer over T with its columns typed back to BIGINT. */
  private def duck(df: DataFrame, select: String, where: String): Unit =
    Oracle.assertEquivalent(df,
      s"SELECT $select FROM (SELECT CAST(pk AS BIGINT) pk, CAST(a AS BIGINT) a FROM t) WHERE $where",
      "t" -> nullRepo._2)

  // (VQuel predicate over E, the same predicate in SQL)
  private val nullPreds = Seq(
    "E.a != 5" -> "a != 5",
    "E.a < 6" -> "a < 6",
    "not (E.a = 5)" -> "NOT (a = 5)",
    "E.a = 5 or E.pk = 2" -> "a = 5 OR pk = 2",
    "not (E.a = 5 and E.pk = 2)" -> "NOT (a = 5 AND pk = 2)")

  /** `count(E.<key> where w)`, then `sum`, `min`, `max` and `avg` of
    * `E.<a> where w`: the targets [[aggDF]] reads.
    */
  private def aggTargets(key: String, a: String, w: String): String =
    (s"count(E.$key where $w)" +: Seq("sum", "min", "max", "avg").map(f => s"$f(E.$a where $w)"))
      .mkString(", ")

  /** Result rows of `keys` then [[aggTargets]] as a DataFrame with the
    * columns `keys`, n, s, lo, hi and m.
    */
  private def aggDF(rows: Vector[Vector[Any]], keys: String*): DataFrame =
    spark.createDataFrame(rows.map(Row.fromSeq).asJava, StructType(
      keys.map(StructField(_, StringType)) ++ Seq(StructField("n", LongType)) ++
        Seq("s", "lo", "hi", "m").map(StructField(_, DoubleType))))

  /** DuckDB's [[aggDF]] columns over T's `pk` and `a`. */
  private val AggSql =
    "count(pk) AS n, sum(a)::DOUBLE AS s, min(a)::DOUBLE AS lo, max(a)::DOUBLE AS hi, avg(a) AS m"

  private def runT(targets: String, rel: String = "T"): Vector[Vector[Any]] =
    Evaluator.run(nullRepo._1,
      s"""range of V is Version
         |range of E is V.Relations(name = ||$rel||).Tuples
         |retrieve $targets""".stripMargin).rows

  test("an aggregate's NULL comparisons agree pushed down and on the driver, as in DuckDB") {
    // Each predicate, and `E.pk > 0`, which keeps the NULL `a`: count
    // counts its tuple, and sum/min/max/avg skip it.
    for ((p, sql) <- ("E.pk > 0" -> "pk > 0") +: nullPreds) {
      // `E.pk = E.pk` is no column-vs-literal test, so it keeps the
      // aggregate on the driver.
      val rows = Seq(p, s"($p) and E.pk = E.pk").map(w => runT(aggTargets("pk", "a", w)))
      assert(rows(0) == rows(1), s"$p: pushed ${rows(0)}, driver ${rows(1)}")
      duck(aggDF(rows(0)), AggSql, sql)
    }
  }

  test("sum, min, max and avg over no value are NULL, pushed down and on the driver, as in DuckDB") {
    for (w <- Seq("E.a > 100", "E.a > 100 and E.pk = E.pk"))
      duck(aggDF(runT(aggTargets("pk", "a", w))), AggSql, "a > 100")
    // A domain with no relation in it.
    assert(runT(aggTargets("pk", "a", "E.pk > 0"), rel = "U") == Vector(Vector(0L, null, null, null, null)))
  }

  test("an aggregate over relations that lack its attributes reads them as NULL, as in DuckDB") {
    // E ranges over Employee and Department tuples alike; `age` and
    // `employee_id` are NULL in a Department tuple (Fig 6.1's Record table).
    val rows = Seq("E.age > 30", "E.age > 30 and E.employee_id = E.employee_id").map { w =>
      run(s"""range of V is Version
             |range of E is V.Relations.Tuples
             |retrieve V.id, ${aggTargets("employee_id", "age", w)}""".stripMargin).rows
    }
    assert(rows(0) == rows(1), s"pushed ${rows(0)}, driver ${rows(1)}")
    val records = repo.versions.flatMap(v => v.relations.values.map { df =>
      def field(a: String) = (if (df.columns.contains(a)) col(a) else lit(null)).cast("string") as a
      df.select(lit(v.id) as "vid", field("employee_id"), field("age"))
    }).reduce(_ unionByName _)
    Oracle.assertEquivalent(aggDF(rows(0), "id"),
      """SELECT vid AS id, count(*) AS n, sum(a)::DOUBLE AS s, min(a)::DOUBLE AS lo,
        |  max(a)::DOUBLE AS hi, avg(a) AS m
        |FROM (SELECT vid, CAST(age AS BIGINT) a FROM records) WHERE a > 30 GROUP BY vid""".stripMargin,
      "records" -> records)
  }

  test("a tuple iterator's NULL comparisons agree with DuckDB, pushed into its collect or not") {
    import spark.implicits._
    for ((p, sql) <- nullPreds) {
      val r = Evaluator.run(nullRepo._1,
        s"""range of V is Version
           |range of E is V.Relations(name = ||T||).Tuples
           |retrieve E.pk
           |where $p""".stripMargin)
      duck(r.rows.map(_.head.asInstanceOf[Long]).toDF("pk"), "pk", sql)
    }
  }

  test("sort by puts NULLs first") {
    val r = Evaluator.run(nullRepo._1,
      """range of V is Version
        |range of E is V.Relations(name = ||T||).Tuples
        |retrieve E.pk
        |sort by E.a""".stripMargin)
    assert(r.rows.map(_.head) == Vector(2L, 1L, 4L, 3L))
  }

  test("a tuple iterator collects only the rows its column-vs-literal conjuncts select") {
    import spark.implicits._
    val read = spark.sparkContext.longAccumulator("rows read")
    // x is computed above the pushed filter, so only the rows kept reach it.
    val seen = udf { (pk: Long) => read.add(1); pk }
    val t = spark.range(0, 40).select(col("id") as "pk", (col("id") % 4).cast("int") as "g",
      col("id").cast("string") as "s")
    val rel = t.withColumn("x", seen(col("pk")))
    val repo = Repository(Vector(VersionMeta("v1", "wide", 1, "Alice", Vector.empty, Map("T" -> rel))))
    def run(where: String): Vector[Long] = Evaluator.run(repo,
      s"""range of V is Version
         |range of R is V.Relations
         |range of E is R.Tuples
         |retrieve E.pk
         |where R.name = ||T|| and $where""".stripMargin).rows.map(_.head.asInstanceOf[Long])
    read.reset()
    val got = run("E.g = 1 and E.pk >= 20 and E.s != ||33||")
    assert(read.value == 4, "only the rows of g = 1 and pk >= 20 but not 33 are read")
    Oracle.assertEquivalent(got.toDF("pk"),
      "SELECT CAST(pk AS BIGINT) AS pk FROM t WHERE CAST(g AS INT) = 1 AND CAST(pk AS BIGINT) >= 20 AND s != '33'",
      "t" -> t)
    // A string literal against a numeric column is left to the driver,
    // which compares the two as numbers.
    read.reset()
    assert(run("E.pk = ||7||") == Vector(7L) && read.value == 40)
  }

  // ---- relations that are store checkouts ---------------------------------

  private lazy val history = VersioningBenchmark.sci(
    numVersions = 6, base = 200, updates = 20, inserts = 8, branches = 2, seed = 7)
  /** The newest version: the commit each layout gets after loading. */
  private lazy val committed = history.numVersions

  private val layoutNames = Seq("a-table-per-version", "combined-table", "split-by-vlist",
    "split-by-rlist", "delta-based", "2-partition split-by-rlist")

  /** Each layout of [[layoutNames]], loaded with `history`: the five Ch.4
    * models, and a [[PartitionedStore]] loaded in 2 partitions and migrated
    * to 2 others. Each then commits an edit of its newest version.
    */
  private lazy val layouts: Seq[CvdStore] = {
    val base = Files.createTempDirectory("evalstores")
    val data = VersioningBenchmark.dataTableDF(spark, history, nAttrs = 2)
    val n = history.numVersions
    val halves = PartitionScheme(Vector.tabulate(n)(v => if (v < n / 2) 0 else 1))
    val alternate = PartitionScheme(Vector.tabulate(n)(_ % 2))
    val models = Seq(new ATablePerVersion(spark, base.resolve("atpv")),
      new CombinedTable(spark, base.resolve("comb")), new SplitByVlist(spark, base.resolve("svl")),
      new SplitByRlist(spark, base.resolve("srl")), new DeltaBased(spark, base.resolve("delta")))
    models.foreach(_.load(data, history))
    val parts = new PartitionedStore(spark, base.resolve("parts"))
    parts.load(data, history, halves)
    parts.migrate(alternate, Migration.plan(history, halves, alternate))
    val stores = models :+ parts
    for (s <- stores) assert(s.commit(edited(s.checkout(n - 1)), Seq(n - 1)) == committed)
    stores
  }

  /** `rows` with every 5th pk edited (rid nulled, a1 = -1) and 3 rows with
    * new pks added, materialized so the store's rewrites cannot change it.
    */
  private def edited(rows: DataFrame): DataFrame = {
    val hit = pmod(col("pk"), lit(5)) === 0
    val added = spark.range(1000000L, 1000003L).select(
      lit(null).cast("long") as "rid", col("id") as "pk", col("id") as "a1", lit(0L) as "a2")
    rows.withColumn("rid", when(hit, lit(null).cast("long")).otherwise(col("rid")))
      .withColumn("a1", when(hit, lit(-1L)).otherwise(col("a1")))
      .unionByName(added).localCheckpoint()
  }

  /** Versions `vids` of store `s`, each holding one relation `R`: `rel(v)`. */
  private def storeRepo(s: CvdStore, vids: Seq[Int])(rel: Int => DataFrame): Repository =
    Repository(vids.toVector.map(v => VersionMeta(s"v$v", s"commit $v", v, "analyst",
      s.parents(v).filter(vids.contains).map(p => s"v$p").toVector, Map("R" -> rel(v)))))

  /** Run `targets` per version over `repo`: the result rows and the Spark
    * jobs the evaluation ran.
    */
  private def perVersion(repo: Repository, targets: String): (Vector[Vector[Any]], Long) = {
    val (r, n) = SparkJobs.count(spark)(Evaluator.run(repo,
      s"""range of V is Version
         |range of E is V.Relations.Tuples
         |retrieve V.id, $targets""".stripMargin))
    (r.rows, n.jobs)
  }

  /** Checks `rows`, whose columns are the version id and then `cols`,
    * against DuckDB's `select` over the table `tuples` (id, pk, a1) of
    * each version's relation `R` in `repo`, grouped by id.
    */
  private def duckPerVersion(rows: Vector[Vector[Any]], cols: Seq[StructField],
                             repo: Repository, select: String): Unit = {
    val tuples = repo.versions.map(v =>
      v.relations("R").select(lit(v.id) as "id", col("pk"), col("a1"))).reduce(_ unionByName _)
    Oracle.assertEquivalent(
      spark.createDataFrame(rows.map(Row.fromSeq).asJava, StructType(StructField("id", StringType) +: cols)),
      s"SELECT id, $select FROM (SELECT id, CAST(pk AS BIGINT) pk, CAST(a1 AS BIGINT) a1 FROM tuples) GROUP BY id",
      "tuples" -> tuples)
  }

  /** `count(V.Relations.Tuples)` and `count(E.pk)`: both count tuples. */
  private val Counts = "count(V.Relations.Tuples), count(E.pk)"
  private val CountCols = Seq(StructField("n", LongType), StructField("m", LongType))
  private val CountSql = "count(*) AS n, count(*) AS m"

  for ((layout, i) <- layoutNames.zipWithIndex) {
    test(s"$layout: an unfiltered count of a checkout runs no Spark job and equals DuckDB's count of its rows") {
      val s = layouts(i)
      val repo = storeRepo(s, 0 to committed)(s.checkout)
      val (rows, jobs) = perVersion(repo, Counts)
      assert(jobs == 0)
      assert(rows.map(_.tail) == (0 to committed).map(v => Vector(s.records(v).size, s.records(v).size)))
      duckPerVersion(rows, CountCols, repo, CountSql)
    }

    test(s"$layout: a count over a DataFrame derived from a checkout, or a plain one, runs Spark and equals DuckDB") {
      val s = layouts(i)
      val vids = Seq(history.numVersions / 2, committed)
      val derived = Seq[(String, Int => DataFrame)](
        "where" -> (v => s.checkout(v).where(col("a1") < 50000)),
        "limit" -> (v => s.checkout(v).limit(7)),
        "unionByName" -> (v => s.checkout(v).unionByName(s.checkout(s.parents(v).head))),
        "diffVersions" -> (v => s.diffVersions(v, s.parents(v).head)),
        "toDF" -> (v => s.checkout(v).toDF()),
        "plain" -> (v => spark.createDataFrame(s.checkout(v).collect().toSeq.asJava, s.checkout(v).schema)))
      for ((kind, rel) <- derived) withClue(s"$kind: ") {
        val repo = storeRepo(s, vids)(rel)
        val (rows, jobs) = perVersion(repo, Counts)
        assert(jobs >= 2 * vids.size, "each count is a Spark action")
        duckPerVersion(rows, CountCols, repo, CountSql)
      }
    }

    test(s"$layout: filtered counts and value aggregates over checkouts run Spark and equal DuckDB") {
      val s = layouts(i)
      val repo = storeRepo(s, 0 to committed)(s.checkout)
      val (rows, jobs) = perVersion(repo, "count(E.pk where E.a1 < 50000), sum(E.a1), avg(E.a1)")
      assert(jobs >= 3 * (committed + 1), "each aggregate is a Spark action")
      duckPerVersion(rows, Seq(StructField("n", LongType), StructField("s", DoubleType), StructField("m", DoubleType)),
        repo, "count(*) FILTER (WHERE a1 < 50000) AS n, sum(a1)::DOUBLE AS s, avg(a1) AS m")
    }

    test(s"$layout: a checkout's own count() still runs a Spark job") {
      val s = layouts(i)
      for (v <- Seq(0, committed)) {
        val df = s.checkout(v)
        val (c, n) = SparkJobs.count(spark)(df.count())
        assert(n.jobs >= 1 && c == s.records(v).size, s"v$v: $c rows in ${n.jobs} jobs")
      }
    }
  }
}
