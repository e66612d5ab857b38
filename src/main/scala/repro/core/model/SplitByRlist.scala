package repro.core.model

import java.nio.file.Path
import org.apache.spark.sql.SparkSession
import repro.core.partition.PartitionedStore

/** Approach 4.3, split-by-rlist: the one-partition [[PartitionedStore]]. */
final class SplitByRlist(spark: SparkSession, dir: Path) extends PartitionedStore(spark, dir)
