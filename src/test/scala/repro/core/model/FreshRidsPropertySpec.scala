package repro.core.model

import java.nio.file.Files
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll
import repro.SparkSpec
import scala.jdk.CollectionConverters._

/** ScalaCheck property of the rids a commit gives its null-rid rows: the
  * driver ranks them as Spark's `row_number()` over `ORDER BY pk, a1, a2,
  * a3` does, on tables of long, int, string and double columns with
  * NULLs, NaN, -0.0, non-ASCII strings and repeated rows, both in a first
  * commit and after the rows of a kept parent.
  */
object FreshRidsPropertySpec extends Properties("FreshRids") {

  override def overrideParameters(p: org.scalacheck.Test.Parameters): org.scalacheck.Test.Parameters =
    p.withMinSuccessfulTests(25)

  private lazy val spark = SparkSpec.shared

  private val schema = StructType(Seq(StructField("rid", LongType), StructField("pk", LongType),
    StructField("a1", IntegerType), StructField("a2", StringType), StructField("a3", DoubleType)))

  private def nullOr[T](g: Gen[T]): Gen[Any] = Gen.frequency(1 -> Gen.const(null), 4 -> g)

  /** Rows with NULLs, ±0.0, NaN, infinities, and strings whose UTF-8
    * byte order is not their UTF-16 order (U+FF5E and the emoji).
    */
  private val genRow: Gen[Row] = for {
    pk <- nullOr(Gen.choose(-3L, 3L))
    a1 <- nullOr(Gen.choose(-2, 2))
    a2 <- nullOr(Gen.oneOf("", "a", "A", "z", "\u00e9", "e\u0301", "\u65e5\u672c", "\uff5e", "\ud83d\ude00"))
    a3 <- nullOr(Gen.oneOf(0.0, -0.0, Double.NaN, 1.5, -1.5, Double.PositiveInfinity,
      Double.NegativeInfinity, Double.MinPositiveValue))
  } yield Row(null, pk, a1, a2, a3)

  /** Up to 40 rows drawn from a small pool, so rows repeat. */
  private val genTable: Gen[Seq[Row]] = for {
    pool <- Gen.nonEmptyListOf(genRow)
    n <- Gen.choose(1, 40)
    rows <- Gen.listOfN(n, Gen.oneOf(pool))
  } yield rows

  /** `t`'s rows numbered from `first` by `row_number()`, the reference. */
  private def numbered(t: DataFrame, first: Long): DataFrame =
    t.withColumn("rid", row_number().over(Window.orderBy("pk", "a1", "a2", "a3")).cast("long") + (first - 1))

  /** The rows as strings, -0.0 as 0.0: Spark's ordering ranks them as
    * equal, so either may get the lower rid.
    */
  private def bag(df: DataFrame): Map[Seq[String], Int] =
    df.select("rid", "pk", "a1", "a2", "a3").collect().toSeq
      .map(_.toSeq.map { case d: Double if d == 0.0 => "0.0"; case x => String.valueOf(x) })
      .groupMapReduce(identity)(_ => 1)(_ + _)

  property("fresh rids are row_number() over (pk, a1, a2, a3) from the next rid") =
    forAll(genTable) { rows =>
      val t = spark.createDataFrame(rows.asJava, schema)
      val s = new SplitByRlist(spark, Files.createTempDirectory("freshrids"))
      val v0 = s.commit(t, Seq.empty)
      val first = s.checkout(v0)
      val v1 = s.commit(first.unionByName(t), Seq(v0))
      val want0 = numbered(t, 0)
      (Prop(bag(first) == bag(want0)) :| "first commit") &&
        (Prop(bag(s.checkout(v1)) == bag(want0.unionByName(numbered(t, rows.length)))) :| "after kept rows")
    }
}
