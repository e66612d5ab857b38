package repro.core.model

import com.google.common.collect.MapMaker
import java.nio.file.{Files, Path}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.{CatalystTypeConverters, InternalRow}
import org.apache.spark.sql.catalyst.expressions.{Ascending, BoundReference, InterpretedOrdering, SortOrder}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{LongType, StructType}
import repro.core.{IntervalSet, Membership, VersionGraph}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** A collaborative versioned dataset (CVD) store — Chapter 4.
  *
  * Each concrete store implements one of the thesis's five data models
  * (a-table-per-version, combined-table, split-by-vlist, split-by-rlist,
  * delta-based) on top of Parquet tables on the local filesystem, with all
  * operations expressed as DataFrame transformations.
  *
  * Substitution note (DESIGN.md §1): the paper's backend is PostgreSQL with
  * in-place `UPDATE`; Parquet tables are immutable, so an "update" is a
  * rewrite of the affected table. The relative commit/checkout cost shape
  * between models is preserved — the models differ precisely in *how much*
  * state a commit must touch.
  *
  * The canonical record schema is `(rid BIGINT, pk BIGINT, a1..aN BIGINT)`;
  * `checkout` always returns exactly this schema so results are comparable
  * across models and against the DuckDB oracle. The first `load` or
  * `commit` fixes it, and every table is read with a schema derived from
  * it, so building a DataFrame over the store runs no schema-inference job.
  */
abstract class CvdStore(val spark: SparkSession, val dir: Path) {
  import CvdStore.{Commit, columnTypes, recordSchemaOf}

  Files.createDirectories(dir)

  /** Model name as used in the paper's figures. */
  def name: String

  /** Bulk-load a CVD whose versions and membership are already known
    * (benchmark ingest). `data` is the deduplicated data table
    * (rid, pk, a*), `graph` carries per-version record sets and parents.
    */
  def load(data: DataFrame, graph: VersionGraph): Unit

  /** Materialize version `vid` with schema (rid, pk, a*). The returned
    * DataFrame itself, not one derived from it, is remembered with the
    * version's record set: see [[CvdStore.checkedOut]].
    */
  final def checkout(vid: Int): DataFrame = {
    val df = checkoutRows(vid)
    CvdStore.checkouts.put(df, recordsOf(vid))
    df
  }

  /** The rows of version `vid`, schema (rid, pk, a*): each model's checkout. */
  protected def checkoutRows(vid: Int): DataFrame

  /** Commit `table` (schema rid|NULL, pk, a*) as a new version derived
    * from `parents`. Rows with a null `rid` are new/modified records and
    * are assigned fresh rids (the paper's no-cross-version-diff rule:
    * the committed table is only compared against its parents, which the
    * middleware did at checkout time by retaining rids on unmodified
    * rows). Returns the new vid. One Spark job reads `table`
    * ([[assignRids]]); the layout's `write` does the rest.
    *
    * Throws `IllegalArgumentException`, before anything is written, when
    * the table's (column, type) set is not the store's record schema, a
    * parent is unknown, a non-null rid repeats, or a non-null rid is in no
    * parent.
    */
  final def commit(table: DataFrame, parents: Seq[Int]): Int = {
    schema.foreach { s =>
      val (got, want) = (columnTypes(table.schema), columnTypes(s))
      if (got != want) throw new IllegalArgumentException(
        s"commit rejected: columns (${got.mkString(", ")}) are not the store's (${want.mkString(", ")})")
    }
    val s = schema.getOrElse(recordSchemaOf(table.schema))
    val c = assignRids(table, parents, s)
    schema = Some(s)
    val vid = nextVid
    write(vid, parents, c)
    parentsOf(vid) = parents
    recordsOf(vid) = c.records
    nextVid += 1
    vid
  }

  /** Persist version `vid`: its rows are `c.table`, of which `c.fresh`
    * are records new to the store.
    */
  protected def write(vid: Int, parents: Seq[Int], c: Commit): Unit

  /** diff command: records in `vidA` but not in `vidB` (§3.3.1). The rid
    * sets come from the driver, so only the differing rows are read.
    */
  def diffVersions(vidA: Int, vidB: Int): DataFrame =
    rowsOf(vidA, recordsOf(vidA).diff(recordsOf(vidB)))

  /** The rows of version `vid` whose rid is in `rids` (a subset of its
    * records), with the checkout schema.
    */
  protected def rowsOf(vid: Int, rids: IntervalSet): DataFrame =
    checkoutRows(vid).where(Membership.within(rids))

  /** The record schema (rid, pk, a*), every field nullable, as the first
    * `load` or `commit` gave it.
    */
  private var schema: Option[StructType] = None

  protected def recordSchema: StructType =
    schema.getOrElse(throw new IllegalStateException(s"$name store at $dir holds no version"))

  /** The one table read: Parquet at `path` with the known schema `s`, so
    * Spark reads no footers until an action runs. A store without versions
    * has written no table yet, and reads as empty.
    */
  protected def read(path: String, s: StructType): DataFrame =
    if (nextVid == 0) spark.createDataFrame(java.util.List.of[Row](), s)
    else spark.read.schema(s).parquet(path)

  /** Total bytes on disk for the store. */
  def storageBytes: Long = CvdStore.du(dir)

  // ---- shared bookkeeping -------------------------------------------------

  /** Driver-side version metadata: vid -> parents (the metadata table). */
  protected val parentsOf = mutable.Map.empty[Int, Seq[Int]]
  /** Driver-side version metadata: vid -> the version's record set. */
  protected val recordsOf = mutable.Map.empty[Int, IntervalSet]
  protected var nextVid: Int = 0
  protected var nextRid: Long = 0L

  def numVersions: Int = nextVid
  def parents(vid: Int): Seq[Int] = parentsOf(vid)
  def records(vid: Int): IntervalSet = recordsOf(vid)

  /** Bulk-load bookkeeping: the record schema is `data`'s, and the
    * versions are `graph`'s.
    */
  protected def registerGraph(data: DataFrame, graph: VersionGraph): Unit = {
    schema = Some(recordSchemaOf(data.schema))
    graph.versions.foreach { v =>
      parentsOf(v.vid) = v.parents
      recordsOf(v.vid) = v.records
    }
    nextVid = graph.numVersions
    nextRid = graph.allRecords.intervals.lastOption.map(_._2 + 1).getOrElse(0L)
  }

  /** The commit front end, with one Spark job: one `collect` returns every
    * rid of `table`, and the whole row, in the record schema `s`, of each
    * row whose rid is null. The rids are validated against the parents on
    * the driver. The null-rid rows are ranked on the driver by pk and then
    * the value columns, ascending with NULLs first, by Catalyst's own
    * ordering (so as `ORDER BY` ranks them), and get `nextRid + rank - 1`:
    * equal input assigns equal rids. Advances `nextRid` past them.
    */
  private def assignRids(table: DataFrame, parents: Seq[Int], s: StructType): Commit = {
    val unknown = parents.filterNot(recordsOf.contains)
    require(unknown.isEmpty, s"commit rejected: unknown parent version(s) ${unknown.mkString(", ")}")
    val rid = col("rid").cast(LongType)
    val rows = table.select(rid, when(rid.isNull, struct(s.fieldNames.toSeq.map(col): _*))).collect()
    val kept = rows.iterator.filterNot(_.isNullAt(0)).map(_.getLong(0)).toVector
    val keptSet = IntervalSet.fromSeq(kept)
    if (keptSet.size != kept.size) {
      val dup = kept.groupBy(identity).collectFirst { case (r, rs) if rs.size > 1 => r }.get
      throw new IllegalArgumentException(
        s"commit rejected: ${kept.size - keptSet.size} repeated rid(s), e.g. rid $dup")
    }
    val foreign = keptSet.diff(IntervalSet.unionAll(parents.map(recordsOf)))
    require(foreign.isEmpty,
      s"commit rejected: ${foreign.size} rid(s) in no parent of ${parents.mkString("[", ", ", "]")}, " +
        s"e.g. rid ${foreign.intervals.head._1}")
    val toInternal = CatalystTypeConverters.createToCatalystConverter(s)
    val fresh = rows.collect { case r if r.isNullAt(0) => toInternal(r.getStruct(1)).asInstanceOf[InternalRow] }
    val order = ("pk" +: attrCols(table).filterNot(_ == "pk")).map { c =>
      val i = s.fieldIndex(c)
      SortOrder(BoundReference(i, s(i).dataType, nullable = true), Ascending)
    }
    fresh.sortInPlace()(new InterpretedOrdering(order))
    for (i <- fresh.indices) fresh(i).setLong(0, nextRid + i)
    val records = keptSet.union(IntervalSet.range(nextRid, nextRid + fresh.length - 1))
    nextRid += fresh.length
    new Commit(table, s, fresh, records)
  }

  /** The parent sharing the most records with `records` (§4.1: a merge's
    * base), if there is a parent.
    */
  protected def closestParent(parents: Seq[Int], records: IntervalSet): Option[Int] =
    parents.maxByOption(p => recordsOf(p).intersectSize(records))

  /** The vlist rewrite of a commit (combined-table, split-by-vlist): `vid`
    * joins the vlist of every row of `vlists` whose rid is in `records`,
    * and the `fresh` rows are added with the vlist `[vid]`.
    */
  protected def appendVid(vlists: DataFrame, vid: Int, records: IntervalSet,
                          fresh: DataFrame): DataFrame = {
    vlists
      .withColumn("vlist",
        when(Membership.within(records), concat(col("vlist"), array(lit(vid)))).otherwise(col("vlist")))
      .unionByName(fresh.withColumn("vlist", array(lit(vid))))
  }

  protected def attrCols(df: DataFrame): Seq[String] =
    df.columns.filterNot(c => c == "rid" || c == "vid").toSeq
}

object CvdStore {
  /** A validated commit of `input`: `freshRows` are the rows given fresh
    * rids, in the record schema `schema` and in rid order, and `records`
    * is the version's record set.
    */
  final class Commit(input: DataFrame, schema: StructType, val freshRows: Array[InternalRow],
                     val records: IntervalSet) {
    /** The fresh rows as a local relation. */
    lazy val fresh: DataFrame = {
      val toRow = CatalystTypeConverters.createToScalaConverter(schema)
      input.sparkSession.createDataFrame(freshRows.toSeq.map(toRow(_).asInstanceOf[Row]).asJava, schema)
    }

    /** Every row of the new version, with its rid. */
    lazy val table: DataFrame = input.where(col("rid").isNotNull).unionByName(fresh)
  }

  /** Every DataFrame [[CvdStore.checkout]] has returned and not yet been
    * collected, with its version's record set. Keys are weak and compared
    * by identity, so a DataFrame derived from a checkout (`where`, `limit`,
    * `union`, ...) is a new object that is never found here.
    */
  private val checkouts = new MapMaker().weakKeys().makeMap[DataFrame, IntervalSet]()

  /** The record set of the version whose checkout `df` is, if `df` is the
    * very DataFrame a `checkout` returned: its rows are exactly those
    * records, one row each, so for example it has `size` rows.
    */
  def checkedOut(df: DataFrame): Option[IntervalSet] = Option(checkouts.get(df))

  /** `s`'s columns with rid first, as BIGINT, and every field nullable:
    * the schema Parquet gives them back with.
    */
  private def recordSchemaOf(s: StructType): StructType = {
    val (rid, rest) = s.fields.partition(_.name == "rid")
    StructType((rid.map(_.copy(dataType = LongType)) ++ rest).map(_.copy(nullable = true)))
  }

  /** `s`'s columns as sorted "name type" strings: order and nullability
    * do not count.
    */
  private def columnTypes(s: StructType): Seq[String] =
    s.fields.toSeq.map(f => s"${f.name} ${f.dataType.simpleString}").sorted

  /** Recursive on-disk size of a directory, in bytes. */
  def du(p: Path): Long = {
    if (!Files.exists(p)) return 0L
    val s = Files.walk(p)
    try s.filter(Files.isRegularFile(_)).mapToLong(Files.size(_)).sum
    finally s.close()
  }

  /** Delete a file or directory tree if it exists. */
  def deleteRecursively(p: Path): Unit = {
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.sorted(java.util.Comparator.reverseOrder()).forEach(Files.delete(_))
      finally s.close()
    }
  }
}
