package repro.core

/** The one tree routine behind the version tree (LyreSplit, §5.3.1) and the
  * storage trees rooted at the dummy node V0 (Ch.7 solvers): child lists
  * from parent lists, and a pre-order walk over them.
  *
  * Nodes are `0 until n`. Neither function recurses, so a chain of any depth
  * fits the JVM stack.
  */
object Graphs {

  /** Child lists of nodes `0 until n`, each in ascending order. `parents(j)`
    * lists node j's parents; a negative entry (a root's -1) is no parent.
    */
  def children(n: Int, parents: Int => Iterable[Int]): Vector[Vector[Int]] = {
    val acc = Array.fill(n)(Vector.newBuilder[Int])
    for (j <- 0 until n; p <- parents(j); if p >= 0) acc(p) += j
    acc.iterator.map(_.result()).toVector
  }

  /** The nodes reached from `root` in pre-order, lower children first: the
    * subtree at `out(i)` is one contiguous run starting at i. A child for
    * which `keep` is false is dropped together with its subtree. `kids` must
    * describe a tree below `root` (no node reached twice).
    */
  def preorder(kids: Int => Seq[Int], root: Int,
               keep: Int => Boolean = _ => true): Array[Int] = {
    val out = Array.newBuilder[Int]
    var stack = new Array[Int](16)
    stack(0) = root
    var top = 1
    while (top > 0) {
      top -= 1
      val v = stack(top)
      out += v
      // Push the kept children in reverse, so the lowest one pops first.
      for (c <- kids(v).reverseIterator; if keep(c)) {
        if (top == stack.length) stack = java.util.Arrays.copyOf(stack, 2 * top)
        stack(top) = c; top += 1
      }
    }
    out.result()
  }
}
