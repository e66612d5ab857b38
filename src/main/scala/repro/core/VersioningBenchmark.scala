package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.util.Random
import scala.collection.mutable.ArrayBuffer

/** Reimplementation of the Decibel versioning benchmark (Maddox et al.)
  * used by the thesis (§5.5.1): deterministic generators for the
  * - SCI ("science") workload: a mainline with branches at arbitrary
  *   points — the version graph is a tree; and the
  * - CUR ("curation") workload: branches that also periodically merge
  *   back — the version graph is a DAG.
  *
  * Each non-merge commit performs `updates` record replacements (delete a
  * chunk of existing rids, insert fresh rids) plus `inserts` fresh rids
  * against its parent, matching the benchmark's churn model: record sets
  * stay roughly constant in size and each record lives in ~`base/updates`
  * consecutive versions, reproducing the paper's |E| ≈ 10·|R| shape.
  *
  * The paper ran SCI_1M…SCI_10M (1M–10M records, Postgres). We run the
  * same generator at 30K–300K records (documented in DESIGN.md); all
  * structural ratios (|E|/|R|, |E|/|V|, branch counts) match the paper's.
  */
object VersioningBenchmark {

  /** Generator parameters.
    *
    * @param numVersions total number of versions |V|
    * @param base        record count of the root version
    * @param updates     records replaced per commit (churn)
    * @param inserts     net-new records per commit
    * @param branches    number of branch points
    * @param mergeEvery  if >0, every k-th commit merges a branch head back
    *                    into the mainline head (CUR); 0 disables (SCI)
    * @param seed        RNG seed — generation is deterministic in params
    */
  final case class Config(
      numVersions: Int,
      base: Int,
      updates: Int,
      inserts: Int,
      branches: Int,
      mergeEvery: Int,
      seed: Long,
  )

  /** SCI workload: tree-shaped version graph. */
  def sci(numVersions: Int = 100, base: Int = 10000, updates: Int = 900,
          inserts: Int = 100, branches: Int = 10, seed: Long = 42): VersionGraph =
    generate(Config(numVersions, base, updates, inserts, branches, mergeEvery = 0, seed))

  /** CUR workload: DAG-shaped version graph with merges. */
  def cur(numVersions: Int = 100, base: Int = 10000, updates: Int = 900,
          inserts: Int = 100, branches: Int = 10, mergeEvery: Int = 10,
          seed: Long = 42): VersionGraph =
    generate(Config(numVersions, base, updates, inserts, branches, mergeEvery, seed))

  def generate(cfg: Config): VersionGraph = {
    require(cfg.numVersions >= 1 && cfg.base >= 1)
    val rng = new Random(cfg.seed)
    var nextRid = cfg.base.toLong
    val versions = ArrayBuffer[Version](
      Version(0, Vector.empty, IntervalSet.range(0, cfg.base - 1L), 0L))
    // Branch heads: index 0 is the mainline; others are side branches.
    val heads = ArrayBuffer[Int](0)

    def freshRids(k: Int): IntervalSet = {
      val s = nextRid; nextRid += k
      IntervalSet.range(s, nextRid - 1)
    }

    /** Derive a child record set: churn `updates` old rids, add new ones. */
    def churn(parent: IntervalSet): IntervalSet = {
      var recs = parent
      var toRemove = math.min(cfg.updates.toLong, math.max(0L, recs.size - 1))
      // Chunky removals (runs of up to 256 ranks) keep intervals compact
      // and model batch updates.
      while (toRemove > 0 && recs.size > 1) {
        val chunk = math.min(toRemove, 1L + rng.nextInt(256))
        val from = math.abs(rng.nextLong()) % math.max(1L, recs.size - chunk)
        recs = recs.removeRankRange(from, chunk)
        toRemove -= chunk
      }
      recs.union(freshRids(cfg.updates + cfg.inserts))
    }

    var vid = 1
    while (vid < cfg.numVersions) {
      val wantBranch =
        heads.length - 1 < cfg.branches &&
          rng.nextDouble() < cfg.branches.toDouble / cfg.numVersions
      val wantMerge =
        cfg.mergeEvery > 0 && heads.length > 1 && vid % cfg.mergeEvery == 0

      if (wantMerge) {
        // Merge a random side-branch head into the mainline head.
        val bIdx = 1 + rng.nextInt(heads.length - 1)
        val p1 = heads(0); val p2 = heads(bIdx)
        val merged = versions(p1).records.union(versions(p2).records)
          .union(freshRids(cfg.inserts))
        versions += Version(vid, Vector(p1, p2), merged, vid.toLong)
        heads.remove(bIdx)
        heads(0) = vid
      } else if (wantBranch) {
        // Branch off a random existing version.
        val from = rng.nextInt(vid)
        versions += Version(vid, Vector(from), churn(versions(from).records), vid.toLong)
        heads += vid
      } else {
        // Extend a random active branch (mainline is picked ~half the time).
        val hIdx = if (rng.nextBoolean() || heads.length == 1) 0 else rng.nextInt(heads.length)
        val p = heads(hIdx)
        versions += Version(vid, Vector(p), churn(versions(p).records), vid.toLong)
        heads(hIdx) = vid
      }
      vid += 1
    }
    VersionGraph(versions.toVector)
  }

  /** The version-record membership relation as a DataFrame
    * `(vid INT, rid BIGINT)` — the bipartite graph E, exploded from the
    * driver-side interval encoding with `sequence()`.
    */
  def membershipDF(spark: SparkSession, g: VersionGraph): DataFrame = Membership(spark, g)

  /** The data table `(rid BIGINT, pk BIGINT, a1..aN BIGINT)` for all rids
    * in the CVD; attributes derived deterministically from rid so Spark
    * and DuckDB see identical content. The paper uses 100 4-byte ints per
    * record; we use `nAttrs` 8-byte ints (DESIGN.md §1).
    */
  def dataTableDF(spark: SparkSession, g: VersionGraph, nAttrs: Int = 10): DataFrame = {
    import spark.implicits._
    val base = Membership(spark, Seq(0 -> g.allRecords)).select("rid")
    val attrs = (1 to nAttrs).map(i => (($"rid" * lit(2654435761L + i) + lit(i)) % 100000L) as s"a$i")
    base.select(($"rid" +: ($"rid" as "pk") +: attrs): _*)
  }
}
