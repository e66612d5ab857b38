package repro.storage

import repro.core.Bisect

/** Dispatch for the six problem variants of Table 7.1, plus an exact
  * brute-force solver used as the test-time optimality yardstick in place
  * of the paper's ILP (DESIGN.md §4).
  */
object Problems {

  /** Problem 7.1: minimize C, recreation unconstrained. */
  def minStorage(g: DeltaGraph): StorageSolution =
    if (g.directed) Spanning.edmonds(g) else Spanning.primMST(g)

  /** Problem 7.2: minimize every R_i, storage unconstrained. */
  def minRecreation(g: DeltaGraph): StorageSolution = Spanning.dijkstraSPT(g)

  /** Problem 7.3: minimize ΣR_i s.t. C ≤ beta. */
  def minSumRecreation(g: DeltaGraph, beta: Double): StorageSolution =
    Lmg.minSumRecreation(g, beta)

  /** Problem 7.4: minimize max R_i s.t. C ≤ beta.
    * Undirected: LAST with the smallest α whose storage fits β (a smaller α
    * gives shorter paths and more storage); directed: MP with θ-binary
    * search.
    */
  def minMaxRecreation(g: DeltaGraph, beta: Double): StorageSolution =
    if (g.directed) ModifiedPrim.minMaxRecreationUnderBudget(g, beta)
    else lastSearch(g, upOnFit = false)(_.storageCost(g) <= beta)

  /** Problem 7.5: minimize C s.t. ΣR_i ≤ theta. */
  def minStorageSumRecreation(g: DeltaGraph, theta: Double): StorageSolution =
    Lmg.minStorageSumRecreation(g, theta)

  /** Problem 7.6: minimize C s.t. max R_i ≤ theta.
    * Undirected: LAST with the largest α (cheapest tree) meeting θ;
    * directed: MP.
    */
  def minStorageMaxRecreation(g: DeltaGraph, theta: Double): StorageSolution =
    if (g.directed) ModifiedPrim.run(g, theta)
    else lastSearch(g, upOnFit = true)(_.maxRecreation(g) <= theta)

  /** LAST's α search: 40 probes over [1.000001, 64] of one [[Last.prepare]]. */
  private def lastSearch(g: DeltaGraph, upOnFit: Boolean)(
      fits: StorageSolution => Boolean): StorageSolution =
    Bisect.lastFit(1.000001, 64.0, 40, upOnFit)(Last.prepare(g))(fits)

  /** Exhaustive search over all valid parent assignments (n ≤ 8 or so):
    * returns the solution minimizing `objective`, subject to `feasible`.
    */
  def bruteForce(g: DeltaGraph,
                 objective: StorageSolution => Double,
                 feasible: StorageSolution => Boolean = _ => true): StorageSolution = {
    val n = g.n
    var best: Option[(Double, StorageSolution)] = None
    val parent = Array.fill(n + 1)(-1)
    def rec(j: Int): Unit = {
      if (j > n) {
        val sol = StorageSolution(parent.toVector)
        if (sol.isValid && feasible(sol)) {
          val o = objective(sol)
          if (best.forall(_._1 > o)) best = Some((o, sol))
        }
      } else {
        for (p <- 0 to n; if p != j) { parent(j) = p; rec(j + 1) }
        parent(j) = -1
      }
    }
    rec(1)
    best.map(_._2).getOrElse(throw new IllegalArgumentException("no feasible solution"))
  }
}
