package repro.provenance

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Membership, VersionGraph}

/** Chapter 8: inferring lineage among versions in an existing repository
  * — removing the "from-scratch" assumption. Versions arrive with no
  * registered derivation metadata; only their content (and a file
  * timestamp) is available.
  *
  * Edge inference (§8.4): each version's record set is recovered from the
  * membership relation in one Spark pass, and pairwise record overlaps are
  * counted by interval intersection on the driver; each version's
  * parent(s) are the earlier versions that best explain its content —
  * the maximum-overlap predecessor, plus any additional predecessor that
  * explains enough records the first one does not (merge detection).
  */
object LineageInference {

  /** An inferred derivation edge `parent -> child` with its evidence. */
  final case class InferredEdge(parent: Int, child: Int, overlap: Long,
                                containment: Double)

  final case class Result(edges: Vector[InferredEdge]) {
    def edgeSet: Set[(Int, Int)] = edges.map(e => (e.parent, e.child)).toSet
  }

  /** Quality of an inference against the ground-truth version graph. */
  final case class Quality(truePositives: Int, falsePositives: Int,
                           falseNegatives: Int) {
    def precision: Double =
      if (truePositives + falsePositives == 0) 1.0
      else truePositives.toDouble / (truePositives + falsePositives)
    def recall: Double =
      if (truePositives + falseNegatives == 0) 1.0
      else truePositives.toDouble / (truePositives + falseNegatives)
    def f1: Double =
      if (precision + recall == 0) 0.0
      else 2 * precision * recall / (precision + recall)
  }

  /** Pairwise overlap counts |R(u) ∩ R(v)| for u < v and each version's
    * record count: [[Membership.overlaps]] of the record sets recovered
    * from the membership relation.
    */
  def pairwiseOverlaps(spark: SparkSession, membership: DataFrame)
      : (Map[(Int, Int), Long], Map[Int, Long]) =
    Membership.overlaps(Membership.recordSets(membership))

  /** Infer the version DAG.
    *
    * @param timestamps  commit order (vid -> ts); a parent must be earlier
    * @param minContainment smallest |R(u)∩R(v)| / |R(v)| to accept u as a
    *                       parent of v
    * @param mergeGain   fraction of |R(v)| a second parent must newly
    *                    explain (beyond the first) to be kept
    */
  def infer(spark: SparkSession, membership: DataFrame, timestamps: Map[Int, Long],
            minContainment: Double = 0.3, mergeGain: Double = 0.05): Result = {
    val (overlaps, sizes) = pairwiseOverlaps(spark, membership)
    def ov(u: Int, v: Int): Long =
      if (u < v) overlaps.getOrElse((u, v), 0L) else overlaps.getOrElse((v, u), 0L)

    val vids = sizes.keys.toVector.sortBy(v => (timestamps(v), v))
    val edges = Vector.newBuilder[InferredEdge]
    for ((v, idx) <- vids.zipWithIndex; if idx > 0) {
      val earlier = vids.take(idx)
      val scored = earlier.map(u => (u, ov(u, v))).filter(_._2 > 0)
      if (scored.nonEmpty) {
        val (p1, o1) = scored.maxBy(_._2)
        val c1 = o1.toDouble / sizes(v)
        if (c1 >= minContainment) {
          edges += InferredEdge(p1, v, o1, c1)
          // Merge detection: a second parent must explain records that
          // the first does not. Overlap counts alone cannot tell which
          // records are shared, so approximate the gain with
          // ov(u,v) − ov(u,p1 ∩ v) ≥ ov(u,v) − ov(u,p1) as a lower bound.
          val second = scored.filter(_._1 != p1)
            .map { case (u, o) => (u, o, (o - ov(u, p1)).toDouble / sizes(v)) }
            .filter(_._3 >= mergeGain)
          if (second.nonEmpty) {
            val (p2, o2, _) = second.maxBy(_._2)
            edges += InferredEdge(p2, v, o2, o2.toDouble / sizes(v))
          }
        }
      }
    }
    Result(edges.result())
  }

  /** Compare inferred edges against a ground-truth graph. */
  def evaluate(result: Result, truth: VersionGraph): Quality = {
    val truthEdges = truth.versions
      .flatMap(v => v.parents.map(p => (p, v.vid))).toSet
    val got = result.edgeSet
    Quality(
      truePositives = got.count(truthEdges),
      falsePositives = got.count(e => !truthEdges(e)),
      falseNegatives = truthEdges.count(e => !got(e)),
    )
  }
}
