package repro.core.partition

import repro.core.VersionGraph
import scala.collection.mutable

/** Reference LyreSplit: the direct `Set`-based reading of Algorithm 5.1
  * that [[LyreSplit]] replaced. Each candidate's subtree is rebuilt as a
  * `Set`, so a level costs O(candidates × fragment); tests compare the
  * one-pass implementation against it on small graphs. Ties among equal
  * (version imbalance, record imbalance) go to the lowest vid.
  */
object LyreSplitReference {

  def run(g: VersionGraph, delta: Double): LyreSplit.Result = {
    val parent = g.treeParent
    val sizeR = g.versions.map(_.records.size)
    val wPar = g.versions.map { v =>
      val p = parent(v.vid); if (p < 0) 0L else g.weight(p, v.vid)
    }
    runCore(g, delta, sizeR, wPar)
  }

  def runWithSchema(g: VersionGraph, attrs: Vector[Set[Int]], delta: Double): LyreSplit.Result = {
    val parent = g.treeParent
    val sizeCells = g.versions.map(v => attrs(v.vid).size.toLong * v.records.size)
    val wPar = g.versions.map { v =>
      val p = parent(v.vid)
      if (p < 0) 0L
      else attrs(v.vid).intersect(attrs(p)).size.toLong * g.weight(p, v.vid)
    }
    runCore(g, delta, sizeCells, wPar)
  }

  /** The §5.2 binary search on δ, costing each probe with [[CostModel]]. */
  def forBudget(g: VersionGraph, gamma: Long, iters: Int = 20): LyreSplit.Result = {
    val n = g.numVersions
    var lo = g.numBipartiteEdges.toDouble /
      ((g.numRecords + g.numDuplicatedRecords).toDouble * n)
    var hi = 1.0
    var best = LyreSplit.Result(PartitionScheme.single(n), 0)
    var bestC = CostModel.avgCheckoutCost(g, best.scheme)
    var it = 0
    var continue = true
    while (it < iters && continue) {
      val mid = (lo + hi) / 2
      val r = run(g, mid)
      val s = CostModel.storageCost(g, r.scheme)
      if (s <= gamma) {
        val c = CostModel.avgCheckoutCost(g, r.scheme)
        if (c < bestC) { bestC = c; best = r }
        lo = mid
        if (s >= 0.99 * gamma) continue = false
      } else {
        hi = mid
      }
      it += 1
    }
    best
  }

  private def runCore(g: VersionGraph, delta: Double,
                      sizeR: Vector[Long], wPar: Vector[Long]): LyreSplit.Result = {
    val n = g.numVersions
    val parent = g.treeParent
    val children = g.treeChildren
    val assignment = Array.fill(n)(-1)
    var nextPid = 0
    var maxLevel = 0

    def split(root: Int, members: Set[Int], level: Int): Unit = {
      maxLevel = math.max(maxLevel, level)
      val vCount = members.size.toLong
      val eCount = members.iterator.map(sizeR(_)).sum
      val rCount = members.iterator.map { v =>
        if (v == root) sizeR(v) else sizeR(v) - wPar(v)
      }.sum
      val done = rCount.toDouble * vCount < eCount.toDouble / delta
      val candidates =
        if (done) Nil
        else members.iterator
          .filter(v => v != root && members.contains(parent(v)))
          .filter(v => wPar(v) <= delta * rCount)
          .toList
      if (done || candidates.isEmpty) {
        val pid = nextPid; nextPid += 1
        members.foreach(assignment(_) = pid)
      } else {
        def subtree(v: Int): Set[Int] = {
          val acc = mutable.Set(v)
          val stack = mutable.Stack(v)
          while (stack.nonEmpty)
            for (c <- children(stack.pop()); if members.contains(c)) {
              acc += c; stack.push(c)
            }
          acc.toSet
        }
        val best = candidates.minBy { v =>
          val sub = subtree(v)
          val vImb = math.abs(2L * sub.size - vCount)
          val subR = sub.iterator.map(u => if (u == v) sizeR(u) else sizeR(u) - wPar(u)).sum
          val rImb = math.abs(2L * subR - rCount)
          (vImb, rImb, v)
        }
        val subSet = subtree(best)
        split(best, subSet, level + 1)
        split(root, members -- subSet, level + 1)
      }
    }

    val roots = g.versions.filter(v => parent(v.vid) < 0).map(_.vid)
    val rootOf = Array.fill(n)(-1)
    def mark(r: Int, v: Int): Unit = { rootOf(v) = r; children(v).foreach(mark(r, _)) }
    roots.foreach(r => mark(r, r))
    val byRoot = (0 until n).groupBy(rootOf(_))
    for (r <- roots) split(r, byRoot(r).toSet, 0)
    LyreSplit.Result(PartitionScheme(assignment.toVector).compact, maxLevel)
  }
}
