package repro.experiments

import java.nio.file.{Files, Path}
import org.apache.spark.sql.SparkSession
import repro.core.{VersionGraph, VersioningBenchmark}
import repro.core.partition._
import scala.jdk.CollectionConverters._
import scala.util.Random

/** Table T4 — reproduces Fig 5.14/5.15: measured checkout time with and
  * without partitioning, at storage thresholds γ = 1.5|R| and γ = 2|R|.
  * Checkouts run end-to-end in Spark over the partitioned split-by-rlist
  * store; each configuration reports the average over sampled versions.
  */
object T4PartitionBenefit {

  final case class Row(dataset: String, config: String, checkoutSec: Double,
                       storageMB: Double, partitions: Int)

  /** Evict the store's own Parquet files from the OS page cache (the
    * paper's protocol: cache cleaned before each run), one
    * `dd iflag=nocache count=0` per file, which is
    * `posix_fadvise(POSIX_FADV_DONTNEED)` on the whole file. Nothing else
    * on the host is evicted. Silently skipped where `dd` cannot run:
    * warm-cache numbers then understate the benefit.
    */
  private def evictFromPageCache(dir: Path): Unit =
    try {
      val files = Files.walk(dir)
      try files.iterator.asScala.filter(_.toString.endsWith(".parquet")).foreach { f =>
        new ProcessBuilder("dd", s"if=$f", "iflag=nocache", "count=0", "status=none")
          .start().waitFor()
      } finally files.close()
    } catch { case _: Exception => () }

  def run(spark: SparkSession, datasets: Seq[(String, VersionGraph)],
          sampleVersions: Int = 12): Seq[Row] = {
    val out = Seq.newBuilder[Row]
    // Fewer shuffle partitions during the measurement: per-task overhead
    // must not swamp the scan-size effect under study.
    val prevShuffle = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "16")
    try runInner(spark, datasets, sampleVersions, out)
    finally spark.conf.set("spark.sql.shuffle.partitions", prevShuffle)
    out.result()
  }

  private def runInner(spark: SparkSession, datasets: Seq[(String, VersionGraph)],
                       sampleVersions: Int,
                       out: scala.collection.mutable.Builder[Row, Seq[Row]]): Unit = {
    for ((name, g) <- datasets) {
      // 20 attributes: scan/decode cost must dominate Spark's fixed
      // per-job overhead for the partitioning effect to be measurable
      // (the paper's records carry 100 attributes for the same reason).
      val data = VersioningBenchmark.dataTableDF(spark, g, nAttrs = 20).cache()
      data.count()
      val rng = new Random(1)
      val sample = Vector.fill(sampleVersions)(rng.nextInt(g.numVersions))

      // Load all configurations first, then interleave the timed
      // checkouts and keep the best of two passes per config — JVM/GC
      // drift during a long run hits every configuration equally instead
      // of whichever happened to be measured last.
      val configs = Seq(
        ("no-partitioning", PartitionScheme.single(g.numVersions)),
        ("LyreSplit γ=1.5|R|",
          LyreSplit.forBudget(g, (1.5 * g.numRecords).toLong).scheme),
        ("LyreSplit γ=2|R|",
          LyreSplit.forBudget(g, 2 * g.numRecords).scheme),
      )
      val stores = configs.map { case (cfg, scheme) =>
        val store = new PartitionedStore(spark, Files.createTempDirectory(s"t4-$name"))
        store.load(data, g, scheme)
        store.checkout(sample.head).count() // warm untimed
        (cfg, scheme, store)
      }
      // Paper protocol: evict the store's files from the OS page cache
      // before each timed checkout so every run reads its partition from
      // disk.
      val best = scala.collection.mutable.Map.empty[String, Double]
      for (_ <- 0 until 2) {
        for ((cfg, _, store) <- stores) {
          var total = 0.0
          for (v <- sample) {
            evictFromPageCache(store.dir)
            val (_, secs) = Tables.timed(store.checkout(v).count())
            total += secs
          }
          val per = total / sample.length
          best(cfg) = math.min(best.getOrElse(cfg, Double.MaxValue), per)
        }
      }
      for ((cfg, scheme, store) <- stores)
        out += Row(name, cfg, best(cfg), store.storageBytes / 1e6, scheme.numPartitions)
      data.unpersist()
    }
  }

  val paperShape: String =
    """Paper (Fig 5.14/5.15): with γ=2|R| checkout drops 3x/10x/21x on
      |SCI_1M/5M/10M (4.21→1.21s, 16.6→1.71s, 36→1.68s) and 3x/7x/9x on CUR_*;
      |storage roughly doubles (e.g. SCI_5M 2.04→3.97 GB).""".stripMargin

  def table(rows: Seq[Row]): String =
    Tables.print("T4 — Checkout with vs without partitioning (Fig 5.14/5.15)",
      Seq("dataset", "config", "checkout_s", "storage_MB", "partitions"),
      rows.map(r => Seq(r.dataset, r.config, r.checkoutSec, r.storageMB, r.partitions)))
}
