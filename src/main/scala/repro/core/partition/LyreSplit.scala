package repro.core.partition

import repro.core.{Bisect, Graphs, VersionGraph}
import scala.collection.mutable

/** LyreSplit (Algorithm 5.1): recursive version-tree partitioning.
  *
  * Works on the version tree (the §5.3.1 DAG→tree transform is applied
  * automatically via [[VersionGraph.treeParent]]); all statistics are
  * tree-estimates computed from node sizes and tree-edge weights, so the
  * algorithm never touches the bipartite graph — that is what makes it
  * orders of magnitude faster than the NScale baselines.
  *
  * Guarantee (Theorem 5.2): a ((1+δ)^ℓ, 1/δ)-approximation — C_avg stays
  * under (1/δ)·|E|/|V| and tree-estimated storage under (1+δ)^ℓ·|R̂|.
  */
object LyreSplit {

  /** Result of one run: the scheme plus the recursion depth ℓ. */
  final case class Result(scheme: PartitionScheme, recursionLevels: Int)

  private val BudgetSteps = 20

  /** Run Algorithm 5.1 with splitting parameter `delta` ∈ (0, 1]. */
  def run(g: VersionGraph, delta: Double): Result = {
    val (sizeR, wPar) = recordWeights(g)
    runCore(g, delta, sizeR, wPar)
  }

  /** §5.3.3 schema-change variant: node/edge weights are record×attribute
    * cell counts — `attrs(vid)` is the attribute-id set of each version,
    * so a version's size is a(v)·|R(v)| and a tree edge's weight is
    * a(v_i,v_j)·w(v_i,v_j); an edge becomes a splitting candidate when
    * that product falls under δ times the fragment's cell storage. With a
    * fixed schema this reduces exactly to [[run]].
    */
  def runWithSchema(g: VersionGraph, attrs: Vector[Set[Int]], delta: Double): Result = {
    require(attrs.length == g.numVersions)
    val parent = g.treeParent
    val sizeCells = g.versions.map(v => attrs(v.vid).size.toLong * v.records.size).toArray
    val wPar = g.versions.map { v =>
      val p = parent(v.vid)
      if (p < 0) 0L
      else attrs(v.vid).intersect(attrs(p)).size.toLong * g.weight(p, v.vid)
    }.toArray
    runCore(g, delta, sizeCells, wPar)
  }

  /** |R(v)| and the tree-edge weight w(parent(v), v) (0 at a root) per vid. */
  private def recordWeights(g: VersionGraph): (Array[Long], Array[Long]) = {
    val parent = g.treeParent
    (g.versions.map(_.records.size).toArray,
      g.versions.map { v => val p = parent(v.vid); if (p < 0) 0L else g.weight(p, v.vid) }.toArray)
  }

  /** Splits fragments off a work stack, one pre-order collection and one
    * reverse sweep per fragment, so a recursion level costs O(n). A
    * fragment is the connected part of the tree below its root whose
    * vids carry the root's fragment id.
    */
  private def runCore(g: VersionGraph, delta: Double,
                      sizeR: Array[Long], wPar: Array[Long]): Result = {
    require(delta > 0 && delta <= 1, s"delta must be in (0,1], got $delta")
    val n = g.numVersions
    val parent = g.treeParent
    val assignment = Array.fill(n)(-1)
    val frag = new Array[Int](n) // fragment id per vid; every tree starts as fragment 0
    val subV = new Array[Int](n)  // versions in the fragment's subtree at v
    val subR = new Array[Long](n) // Σ(sizeR − wPar) over that subtree
    val work = mutable.Stack.empty[(Int, Int)] // (fragment root, level)
    for (v <- n - 1 to 0 by -1; if parent(v) < 0) work.push((v, 0))
    var nextFrag, nextPid, maxLevel = 0
    while (work.nonEmpty) {
      val (root, level) = work.pop()
      maxLevel = math.max(maxLevel, level)
      // Members in pre-order: the subtree at order(i) is order(i until i + subV).
      val order = Graphs.preorder(g.treeChildren, root, frag(_) == frag(root))
      val m = order.length
      // Tree-semantic record count of the fragment (Eq 5.4).
      var eCount, rCount = 0L
      for (i <- 0 until m) {
        val v = order(i)
        subV(v) = 1; subR(v) = sizeR(v) - wPar(v)
        eCount += sizeR(v); rCount += subR(v)
      }
      rCount += wPar(root)
      // Candidate split edges: (parent(v), v) inside the fragment with
      // weight ≤ δ|R|. Pick the cut that best balances version counts;
      // break ties by record balance (§5.2), then by the lowest vid.
      var best, bestAt, bestVImb = -1
      var bestRImb = 0L
      if (rCount.toDouble * m >= eCount.toDouble / delta) for (i <- m - 1 to 1 by -1) {
        val v = order(i)
        if (wPar(v) <= delta * rCount) {
          val vImb = math.abs(2 * subV(v) - m)
          val rImb = math.abs(2 * (subR(v) + wPar(v)) - rCount)
          if (best < 0 || vImb < bestVImb ||
              vImb == bestVImb && (rImb < bestRImb || rImb == bestRImb && v < best)) {
            best = v; bestAt = i; bestVImb = vImb; bestRImb = rImb
          }
        }
        subV(parent(v)) += subV(v); subR(parent(v)) += subR(v)
      }
      if (best < 0) {
        for (i <- 0 until m) assignment(order(i)) = nextPid
        nextPid += 1
      } else {
        nextFrag += 1
        for (i <- bestAt until bestAt + subV(best)) frag(order(i)) = nextFrag
        // The cut subtree pops first, as in the recursive formulation.
        work.push((root, level + 1)); work.push((best, level + 1))
      }
    }
    Result(PartitionScheme(assignment.toVector), maxLevel)
  }

  /** §5.2 binary search on δ for Problem 5.1: minimize C_avg subject to
    * S ≤ gamma (exact storage cost), by [[CostModel.cheapestWithin]]. A
    * fitting δ moves the search up (more partitions, less checkout cost),
    * and the search stops at the first fitting δ with S ≥ 0.99γ. When
    * nothing fits (γ < |R|), returns the single-partition scheme.
    */
  def forBudget(g: VersionGraph, gamma: Long): Result = {
    val n = g.numVersions
    val (sizeR, wPar) = recordWeights(g)
    def sized(r: Result) = (r, CostModel.partitionSizes(g, r.scheme))
    val lo = g.numBipartiteEdges.toDouble /
      ((g.numRecords + g.numDuplicatedRecords).toDouble * n)
    val fits = Bisect.fitting(lo, 1.0, BudgetSteps, upOnFit = true)(
      delta => sized(runCore(g, delta, sizeR, wPar)))(_._2.sum <= gamma)
    val untilFull = Iterator.unfold(true)(more =>
      Option.when(more && fits.hasNext)(fits.next()).map(p => (p, p._2.sum < 0.99 * gamma)))
    val single = Result(PartitionScheme.single(n), 0)
    CostModel.cheapestWithin(gamma, Iterator(sized(single)) ++ untilFull)(_.scheme)
      .getOrElse(single)
  }

  /** §5.3.2 weighted case: duplicate each version f_i times along a chain,
    * partition the constructed tree, then post-process by assigning all
    * replicas of a version to its smallest-record partition.
    */
  def runWeighted(g: VersionGraph, freq: Vector[Long], delta: Double): PartitionScheme = {
    require(freq.length == g.numVersions && freq.forall(_ >= 1))
    val n = g.numVersions
    // Build the constructed tree T' of replicas.
    val repVid = mutable.ArrayBuffer.empty[Int]     // replica -> original vid
    val firstRep = Array.fill(n)(-1)
    val lastRep = Array.fill(n)(-1)
    for (v <- 0 until n) {
      firstRep(v) = repVid.length
      for (_ <- 0L until freq(v)) repVid += v
      lastRep(v) = repVid.length - 1
    }
    val m = repVid.length
    val parent = g.treeParent
    val repParents = (0 until m).toVector.map { r =>
      val v = repVid(r)
      if (r > firstRep(v)) Vector(r - 1)
      else if (parent(v) < 0) Vector.empty[Int]
      else Vector(lastRep(parent(v)))
    }
    val repVersions = (0 until m).toVector.map { r =>
      repro.core.Version(r, repParents(r), g.versions(repVid(r)).records, r.toLong)
    }
    val gRep = VersionGraph(repVersions)
    val res = run(gRep, delta)
    // Post-process: move all replicas of v into the member partition with
    // the fewest records.
    val partRecords = res.scheme.versionsOf.map(ms =>
      CostModel.partitionRecords(gRep, ms).size)
    val assignment = (0 until n).toVector.map { v =>
      val pids = (firstRep(v) to lastRep(v)).map(res.scheme.pidOf).distinct
      pids.minBy(partRecords(_))
    }
    PartitionScheme(assignment).compact
  }
}
