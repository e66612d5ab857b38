package repro.storage

import repro.core.{Bisect, Graphs}

/** The Chapter-7 heuristics (Table 7.1, §7.4).
  *
  *  - [[Lmg]]: Local-Move-Greedy for the sum-recreation problems 7.3/7.5.
  *  - [[ModifiedPrim]]: MP for the max-recreation problems 7.4/7.6
  *    (directed case).
  *  - [[Last]]: the LAST balanced-tree adaptation for the undirected
  *    max-recreation problems 7.4/7.6.
  */
object Lmg {

  /** Problem 7.3: minimize ΣR_i subject to C ≤ beta.
    *
    * Start from the min-storage tree (MST / arborescence), then greedily
    * materialize the version with the highest ratio of total-recreation
    * reduction to storage increase, while the budget allows.
    */
  def minSumRecreation(g: DeltaGraph, beta: Double): StorageSolution =
    greedy(g, beta, theta = Double.NegativeInfinity)

  /** Problem 7.5: minimize C subject to ΣR_i ≤ theta — greedily
    * materialize by the same ratio until the recreation constraint holds.
    */
  def minStorageSumRecreation(g: DeltaGraph, theta: Double): StorageSolution =
    greedy(g, beta = Double.PositiveInfinity, theta)

  /** Greedy materialization loop shared by both LMG variants, from
    * [[Problems.minStorage]]: a move is taken only if storage stays within
    * `beta`, and the loop stops once ΣR_i ≤ `theta` or no move helps.
    */
  private def greedy(g: DeltaGraph, beta: Double, theta: Double): StorageSolution = {
    val n = g.n
    val parent = Problems.minStorage(g).parent.toArray
    var continue = true
    while (continue) {
      val sol = StorageSolution(parent.toVector)
      val storage = sol.storageCost(g)
      val recs = sol.recreationCosts(g)
      if (recs.sum <= theta) continue = false
      else {
        // Subtree sizes (number of versions whose recreation path goes
        // through each node): a reverse pre-order sweep adds every subtree
        // into its parent after the subtree is complete.
        val order = Graphs.preorder(sol.children, 0)
        val subSize = Array.fill(n + 1)(1)
        for (k <- n to 1 by -1) subSize(parent(order(k))) += subSize(order(k))
        subSize(0) -= 1
        // Candidate moves: materialize v (re-parent to 0).
        var bestV = -1; var bestRatio = 0.0
        for (v <- 1 to n; if parent(v) != 0) {
          val dStorage = g.delta(0)(v) - g.delta(parent(v))(v)
          val dRecPer = recs(v - 1) - g.phi(0)(v) // per-subtree-node reduction
          val dRec = dRecPer * subSize(v)
          if (dRec > 0 && storage + dStorage <= beta) {
            val ratio = if (dStorage <= 0) Double.MaxValue else dRec / dStorage
            if (ratio > bestRatio) { bestRatio = ratio; bestV = v }
          }
        }
        if (bestV < 0) continue = false
        else parent(bestV) = 0
      }
    }
    StorageSolution(parent.toVector)
  }
}

object ModifiedPrim {

  /** Problems 7.4/7.6 (directed): build a spanning structure that keeps
    * every recreation cost within `theta` while growing storage as slowly
    * as possible — Prim-style growth restricted to feasible attachments.
    *
    * Requires theta ≥ max_j Φ(0,j) (materializing j always meets θ).
    */
  def run(g: DeltaGraph, theta: Double): StorageSolution = {
    val n = g.n
    val par = Array.fill(n + 1)(-1)
    val inTree = Array.fill(n + 1)(false)
    val recAt = Array.fill(n + 1)(Double.PositiveInfinity)
    inTree(0) = true; recAt(0) = 0.0
    var remaining = n
    while (remaining > 0) {
      var bestU = -1; var bestV = -1; var bestCost = Double.PositiveInfinity
      for (u <- 0 to n; if inTree(u); v <- 1 to n; if !inTree(v)) {
        val feasible = recAt(u) + g.phi(u)(v) <= theta
        if (feasible && g.delta(u)(v) < bestCost) {
          bestCost = g.delta(u)(v); bestU = u; bestV = v
        }
      }
      require(bestV >= 0,
        s"MP: no feasible attachment — theta=$theta below max materialization cost?")
      par(bestV) = bestU
      recAt(bestV) = recAt(bestU) + g.phi(bestU)(bestV)
      inTree(bestV) = true
      remaining -= 1
    }
    StorageSolution(par.toVector)
  }

  /** Problem 7.4 (directed; budget β on storage, minimize max
    * recreation): binary search θ, from max_j Φ(0,j) up, to the smallest
    * value whose MP solution fits in β. Problem 7.6 runs MP directly.
    */
  def minMaxRecreationUnderBudget(g: DeltaGraph, beta: Double): StorageSolution = {
    val lo = (1 to g.n).map(j => g.phi(0)(j)).max
    Bisect.lastFit(lo, Spanning.primMST(g).maxRecreation(g) + lo, 30, upOnFit = false)(
      run(g, _))(_.storageCost(g) <= beta)
  }
}

object Last {

  /** The LAST adaptation (Khuller–Raghavachari–Young) for the undirected
    * problems 7.4/7.6: a tree whose root-paths are within `alpha` of the
    * shortest-path distances while total weight stays within
    * (1 + 2/(α−1)) of the MST.
    *
    * DFS over the MST; on entry to v, if the running distance exceeds
    * α·d_SP(v), graft v onto its shortest-path parent.
    */
  def run(g: DeltaGraph, alpha: Double): StorageSolution = prepare(g)(alpha)

  /** LAST's α-independent part — the MST, the SPT with its distances d_SP
    * and the MST's pre-order — computed once; the returned function runs
    * only the O(n) α-dependent pass, so a search over α calls it per probe.
    */
  def prepare(g: DeltaGraph): Double => StorageSolution = {
    val n = g.n
    val mst = Spanning.primMST(g)
    val spt = Spanning.dijkstraSPT(g)
    val dsp = 0.0 +: spt.recreationCosts(g) // indexed by node
    val sptPar = spt.parent
    val order = Graphs.preorder(mst.children, 0)

    alpha => {
      require(alpha > 1, s"alpha must exceed 1, got $alpha")
      val par = mst.parent.toArray
      val d = Array.fill(n + 1)(Double.PositiveInfinity)
      d(0) = 0.0
      // Enter each node from its MST parent, in the MST's pre-order.
      for (c <- order.iterator.drop(1)) {
        val v = mst.parent(c)
        if (d(v) + g.sym(v, c) < d(c)) { d(c) = d(v) + g.sym(v, c); par(c) = v }
        // Graft the shortest path to c, up to its first node already at
        // shortest distance.
        var x = c
        if (d(c) > alpha * dsp(c)) while (x != 0 && d(x) > dsp(x)) {
          d(x) = dsp(x); par(x) = sptPar(x); x = sptPar(x)
        }
      }
      StorageSolution(par.toVector)
    }
  }
}
