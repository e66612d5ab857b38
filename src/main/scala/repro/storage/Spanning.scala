package repro.storage

import repro.core.Graphs
import scala.collection.mutable

/** A storage solution: `parent(j)` is the node version j is stored as a
  * delta from (0 = materialized). `parent(0) = -1`. Always a spanning
  * tree/arborescence rooted at the dummy node (Lemma 7.1).
  */
final case class StorageSolution(parent: Vector[Int]) {
  def n: Int = parent.length - 1

  /** Total storage cost C = Σ Δ(parent(j), j). */
  def storageCost(g: DeltaGraph): Double =
    (1 to n).iterator.map(j => g.delta(parent(j))(j)).sum

  /** Recreation cost R_j = Σ Φ along the path from the root, filled in
    * pre-order from node 0. Fails fast (IllegalStateException) on a cyclic
    * parent map, naming the lowest node that node 0 does not reach.
    */
  def recreationCosts(g: DeltaGraph): Vector[Double] = {
    val order = Graphs.preorder(children, 0)
    if (order.length <= n) {
      val reached = new Array[Boolean](n + 1)
      order.foreach(reached(_) = true)
      throw new IllegalStateException(s"cycle in storage solution at node ${reached.indexOf(false)}")
    }
    val memo = new Array[Double](n + 1)
    for (v <- order.iterator.drop(1)) memo(v) = memo(parent(v)) + g.phi(parent(v))(v)
    memo.toVector.tail
  }

  def sumRecreation(g: DeltaGraph): Double = recreationCosts(g).sum
  def maxRecreation(g: DeltaGraph): Double = recreationCosts(g).max

  /** Children adjacency over nodes 0..n. */
  lazy val children: Vector[Vector[Int]] =
    Graphs.children(n + 1, j => if (j == 0) Nil else List(parent(j)))

  /** Validity: every version reachable from node 0 (acyclic parent map). */
  def isValid: Boolean = Graphs.preorder(children, 0).length == n + 1
}

/** Spanning-structure algorithms of §7.2–7.3: minimum spanning tree
  * (Problem 7.1 undirected), shortest-path tree (Problem 7.2), and the
  * minimum-cost arborescence (Problem 7.1 directed; Chu-Liu/Edmonds).
  */
object Spanning {

  /** Prim's MST over symmetrized Δ, rooted at node 0 — optimal for
    * Problem 7.1 in the undirected case (Lemma 7.2).
    */
  def primMST(g: DeltaGraph): StorageSolution = {
    val n = g.n
    val inTree = Array.fill(n + 1)(false)
    val best = Array.fill(n + 1)(Double.PositiveInfinity)
    val par = Array.fill(n + 1)(-1)
    inTree(0) = true
    for (j <- 1 to n) { best(j) = g.sym(0, j); par(j) = 0 }
    for (_ <- 1 to n) {
      var v = -1
      for (j <- 1 to n; if !inTree(j) && (v < 0 || best(j) < best(v))) v = j
      inTree(v) = true
      for (j <- 1 to n; if !inTree(j) && g.sym(v, j) < best(j)) {
        best(j) = g.sym(v, j); par(j) = v
      }
    }
    StorageSolution(par.toVector)
  }

  /** Dijkstra shortest-path tree over Φ from node 0 — optimal for
    * Problem 7.2 (Lemma 7.3). Uses min(Φij, Φji) when undirected.
    */
  def dijkstraSPT(g: DeltaGraph): StorageSolution = {
    val n = g.n
    def w(i: Int, j: Int): Double =
      if (g.directed) g.phi(i)(j) else math.min(g.phi(i)(j), g.phi(j)(i))
    val dist = Array.fill(n + 1)(Double.PositiveInfinity)
    val par = Array.fill(n + 1)(-1)
    val done = Array.fill(n + 1)(false)
    dist(0) = 0
    val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by(-_._1))
    pq += ((0.0, 0))
    while (pq.nonEmpty) {
      val (d, u) = pq.dequeue()
      if (!done(u)) {
        done(u) = true
        for (j <- 1 to n; if !done(j)) {
          val nd = d + w(u, j)
          if (nd < dist(j)) { dist(j) = nd; par(j) = u; pq += ((nd, j)) }
        }
      }
    }
    StorageSolution(par.toVector)
  }

  /** Chu-Liu/Edmonds minimum-cost arborescence rooted at node 0 over Δ —
    * optimal for Problem 7.1 in the directed case.
    */
  def edmonds(g: DeltaGraph): StorageSolution = {
    // Work on a mutable edge list of (from, to, cost, originalTo, originalFrom).
    final case class E(from: Int, to: Int, cost: Double, id: Int)
    val edges0 = (for {
      i <- 0 to g.n; j <- 1 to g.n
      if i != j && !g.delta(i)(j).isInfinity
    } yield E(i, j, g.delta(i)(j), i * (g.n + 1) + j)).toVector

    // Recursive contraction. Returns the chosen original edge id per node.
    def solve(nodes: Vector[Int], root: Int, edges: Vector[E]): Map[Int, Int] = {
      // Cheapest incoming edge per non-root node.
      val minIn = nodes.filter(_ != root).map { v =>
        v -> edges.filter(_.to == v).minBy(_.cost)
      }.toMap
      // Detect a cycle among chosen edges.
      def findCycle: Option[Vector[Int]] = {
        val color = mutable.Map.empty[Int, Int] // 0/abs=unvisited,1=active,2=done
        for (start <- nodes; if !color.contains(start)) {
          var path = Vector.empty[Int]
          var v = start
          var continue = true
          while (continue) {
            color.get(v) match {
              case Some(1) => return Some(path.drop(path.indexOf(v)))
              case Some(2) => continue = false
              case _ =>
                color(v) = 1; path :+= v
                minIn.get(v) match {
                  case Some(e) => v = e.from
                  case None    => continue = false
                }
            }
          }
          path.foreach(color(_) = 2)
        }
        None
      }
      findCycle match {
        case None =>
          minIn.map { case (v, e) => v -> e.id }
        case Some(cycle) =>
          val cyc = cycle.toSet
          val superNode = nodes.max + 1
          // Re-price edges entering the cycle; remember, per original edge
          // id, which *this-level* cycle node it entered, so the chosen
          // entering edge can be expanded to break the right cycle edge.
          val enterTarget = mutable.Map.empty[Int, Int]
          val newEdges = edges.flatMap { e =>
            if (cyc(e.from) && cyc(e.to)) None
            else if (cyc(e.to)) {
              enterTarget(e.id) = e.to
              Some(E(e.from, superNode, e.cost - minIn(e.to).cost, e.id))
            } else if (cyc(e.from)) Some(E(superNode, e.to, e.cost, e.id))
            else Some(e)
          }
          val newNodes = nodes.filterNot(cyc) :+ superNode
          val sub = solve(newNodes, root, newEdges)
          // The edge chosen into the supernode breaks the cycle at the
          // node it entered at this level.
          val intoId = sub(superNode)
          val broken = enterTarget(intoId)
          val out = mutable.Map.empty[Int, Int]
          sub.foreach { case (v, id) => if (v != superNode) out(v) = id }
          out(broken) = intoId
          for (v <- cycle; if v != broken) out(v) = minIn(v).id
          // Edges leaving the supernode keep their original endpoints and
          // are already recorded in `sub` under their true target nodes.
          out.toMap
      }
    }

    val chosen = solve((0 to g.n).toVector, 0, edges0)
    val par = Array.fill(g.n + 1)(-1)
    for ((v, id) <- chosen) par(v) = id / (g.n + 1)
    StorageSolution(par.toVector)
  }
}
