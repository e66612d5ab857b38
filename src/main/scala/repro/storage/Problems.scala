package repro.storage

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
    * Undirected: LAST with α chosen by binary search to fit β;
    * directed: MP with θ-binary search.
    */
  def minMaxRecreation(g: DeltaGraph, beta: Double): StorageSolution =
    if (g.directed) ModifiedPrim.minMaxRecreationUnderBudget(g, beta)
    else lastForBudget(g, beta)

  /** Problem 7.5: minimize C s.t. ΣR_i ≤ theta. */
  def minStorageSumRecreation(g: DeltaGraph, theta: Double): StorageSolution =
    Lmg.minStorageSumRecreation(g, theta)

  /** Problem 7.6: minimize C s.t. max R_i ≤ theta.
    * Undirected: LAST with the largest α meeting θ; directed: MP.
    */
  def minStorageMaxRecreation(g: DeltaGraph, theta: Double): StorageSolution =
    if (g.directed) ModifiedPrim.run(g, theta)
    else {
      // Find the largest α (cheapest tree) whose max recreation meets θ.
      val last = Last.prepare(g)
      var lo = 1.000001; var hi = 64.0
      var best: Option[StorageSolution] = None
      for (_ <- 0 until 40) {
        val mid = (lo + hi) / 2
        val sol = last(mid)
        if (sol.maxRecreation(g) <= theta) { best = Some(sol); lo = mid }
        else hi = mid
      }
      best.getOrElse(last(1.000001))
    }

  private def lastForBudget(g: DeltaGraph, beta: Double): StorageSolution = {
    // Smaller α ⇒ shorter paths, more storage. Binary search the smallest
    // α whose storage fits β.
    val last = Last.prepare(g)
    var lo = 1.000001; var hi = 64.0
    var best = last(hi)
    for (_ <- 0 until 40) {
      val mid = (lo + hi) / 2
      val sol = last(mid)
      if (sol.storageCost(g) <= beta) { best = sol; hi = mid }
      else lo = mid
    }
    best
  }

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
