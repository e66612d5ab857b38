package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments._

/** Shared session builder for spark-submit entrypoints. Each job prints
  * one reproduced table (DESIGN.md §3) to stdout.
  */
object Jobs {
  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.hadoop.fs.file.impl", classOf[repro.core.LocalFs].getName)
      .getOrCreate()

  /** Optional scale multiplier from args, default 1.0 (≈60K records). */
  def scale(args: Array[String]): Double =
    args.headOption.map(_.toDouble).getOrElse(1.0)
}

/** T1 (Fig 4.1): `spark-submit --class repro.jobs.T1Job repro.jar [scale]` */
object T1Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("T1-data-models")
    println(T1DataModels.paperShape)
    T1DataModels.table(T1DataModels.run(spark, Workloads.sciSuite(Jobs.scale(args))))
    spark.stop()
  }
}

/** T2 (Fig 5.8): tradeoff curves. */
object T2Job {
  def main(args: Array[String]): Unit = {
    val s = Jobs.scale(args)
    println(T2Tradeoff.paperShape)
    T2Tradeoff.table(T2Tradeoff.run(Workloads.sciSuite(s) ++ Workloads.curSuite(s)))
  }
}

/** T3 (Fig 5.10/5.12): partitioner running times. */
object T3Job {
  def main(args: Array[String]): Unit = {
    val s = Jobs.scale(args)
    println(T3PartitionerRuntime.paperShape)
    T3PartitionerRuntime.table(
      T3PartitionerRuntime.run(Workloads.sciSuite(s) ++ Workloads.curSuite(s)))
  }
}

/** T4 (Fig 5.14/5.15): checkout with/without partitioning. */
object T4Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("T4-partition-benefit")
    println(T4PartitionBenefit.paperShape)
    T4PartitionBenefit.table(T4PartitionBenefit.run(
      spark, Workloads.sciSuite(Jobs.scale(args)) ++ Workloads.curSuite(Jobs.scale(args))))
    spark.stop()
  }
}

/** T5 (Fig 5.17/5.19): online maintenance and migration. */
object T5Job {
  def main(args: Array[String]): Unit = {
    println(T5Online.paperShape)
    T5Online.table(T5Online.run())
  }
}

/** T6 (Table 7.1/§7.5): compact storage engine tradeoffs. */
object T6Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("T6-storage-recreation")
    println(T6StorageRecreation.paperShape)
    T6StorageRecreation.table(T6StorageRecreation.run(spark))
    spark.stop()
  }
}

/** T7 (§8.8): lineage inference. */
object T7Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("T7-lineage")
    println(T7Lineage.paperShape)
    T7Lineage.table(T7Lineage.run(spark))
    T7Lineage.explainTable(T7Lineage.runExplain(spark))
    spark.stop()
  }
}

/** VQuel demo: runs the thesis's example queries over a small repository
  * of two versions of a 150-row customer table.
  */
object VQuelJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("vquel-demo")
    import repro.lang._
    val c1 = spark.range(1, 151).toDF("c_custkey").withColumn("c_acctbal",
      org.apache.spark.sql.functions.round(org.apache.spark.sql.functions.rand(2) * 10000 - 1000, 2))
    val c2 = c1.withColumn("c_acctbal",
      org.apache.spark.sql.functions.col("c_acctbal") + 10)
    val repo = Repository(Vector(
      VersionMeta("v01", "import", 100, "alice", Vector.empty, Map("Customer" -> c1)),
      VersionMeta("v02", "adjust balances", 200, "bob", Vector("v01"), Map("Customer" -> c2)),
    ))
    val r = Evaluator.run(repo,
      """range of V is Version
        |range of C is V.Relations(name = ||Customer||).Tuples
        |retrieve V.id, count(C.c_custkey where C.c_acctbal > 0)""".stripMargin)
    println(r.columns.mkString("\t"))
    r.rows.foreach(row => println(row.mkString("\t")))
    spark.stop()
  }
}
