package repro.perfbench

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Order-independent digest of a table: row count, XOR of row hashes and
  * the sum of the hashes reduced mod 2^31-1. The sum catches a duplicated
  * row that the XOR would cancel; reducing each hash first keeps the sum
  * inside a long, which Spark's ANSI mode would otherwise reject.
  *
  * Computing a digest is an action that reads every column it hashes, so
  * timing it times a full read, not the rid-only scan `count()` prunes to.
  */
final case class Digest(rows: Long, xor: Long, sum: Long)

object Digest {
  private val Mod = 2147483647L

  def hash(cols: Seq[String]): Column = xxhash64(cols.map(col): _*)

  def aggs(h: Column): Seq[Column] = Seq(
    count(lit(1)),
    coalesce(bit_xor(h), lit(0L)),
    coalesce(sum(pmod(h, lit(Mod))), lit(0L)))

  def of(df: DataFrame, cols: Seq[String]): Digest = {
    val a = aggs(hash(cols))
    val r = df.agg(a.head, a.tail: _*).head()
    Digest(r.getLong(0), r.getLong(1), r.getLong(2))
  }

  /** Digests of the whole of `df` and of its rows matching `cond`, in one
    * pass.
    */
  def split(df: DataFrame, cols: Seq[String], cond: Column): (Digest, Digest) = {
    val h = hash(cols)
    val a = aggs(h) ++ aggs(when(cond, h)).tail :+ count(when(cond, lit(1)))
    val r = df.agg(a.head, a.tail: _*).head()
    (Digest(r.getLong(0), r.getLong(1), r.getLong(2)),
     Digest(r.getLong(5), r.getLong(3), r.getLong(4)))
  }

  /** Digest per version of `membership (vid, rid)` joined to `data`. */
  def byVersion(membership: DataFrame, data: DataFrame, cols: Seq[String]): Map[Int, Digest] = {
    val a = aggs(hash(cols))
    membership.join(data, "rid").groupBy("vid").agg(a.head, a.tail: _*).collect()
      .map(r => r.getInt(0) -> Digest(r.getLong(1), r.getLong(2), r.getLong(3))).toMap
  }
}
