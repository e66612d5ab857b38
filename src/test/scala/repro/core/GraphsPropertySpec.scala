package repro.core

import org.scalacheck.{Gen, Properties}
import org.scalacheck.Prop.forAll

/** ScalaCheck: [[Graphs.children]] and [[Graphs.preorder]] on random forests
  * (node labels shuffled, so a parent may carry a higher label than its
  * child) with random `keep` predicates.
  */
object GraphsPropertySpec extends Properties("Graphs") {

  /** A forest as a parent array (-1 at each root), a walk root and a keep flag per node. */
  private final case class Case(parent: Vector[Int], root: Int, keep: Vector[Boolean]) {
    def n: Int = parent.length
    lazy val kids: Vector[Vector[Int]] = Graphs.children(n, j => List(parent(j)))
    lazy val order: Array[Int] = Graphs.preorder(kids, root, keep)
  }

  private val genCase: Gen[Case] = for {
    n <- Gen.choose(1, 80)
    links <- Gen.sequence[Vector[Int], Int]((0 until n).map(i => Gen.choose(-1, i - 1)))
    seed <- Gen.choose(0L, Long.MaxValue)
    root <- Gen.choose(0, n - 1)
    keep <- Gen.sequence[Vector[Boolean], Boolean](Vector.fill(n)(Gen.frequency(4 -> true, 1 -> false)))
  } yield {
    // Node i links to an earlier node (or none), so the links form a forest;
    // relabelling by a permutation keeps it one.
    val labels = new scala.util.Random(seed).shuffle((0 until n).toVector)
    val parent = new Array[Int](n)
    for (i <- 0 until n) parent(labels(i)) = if (links(i) < 0) -1 else labels(links(i))
    Case(parent.toVector, root, keep)
  }

  /** The recursive definition: the root, then each kept child's pre-order, lowest child first. */
  private def reference(c: Case): Vector[Int] = {
    def walk(v: Int): Vector[Int] =
      v +: (0 until c.n).filter(j => c.parent(j) == v && c.keep(j)).flatMap(walk).toVector
    walk(c.root)
  }

  /** Whether `a` lies on the parent path above `v`. */
  private def isAncestor(c: Case, a: Int, v: Int): Boolean =
    Iterator.iterate(c.parent(v))(c.parent(_)).takeWhile(_ >= 0).contains(a)

  property("children equals a naive builder") = forAll(genCase) { c =>
    c.kids == Vector.tabulate(c.n)(p => (0 until c.n).filter(c.parent(_) == p).toVector)
  }

  property("preorder puts each parent before its children") = forAll(genCase) { c =>
    val at = c.order.zipWithIndex.toMap
    c.order(0) == c.root &&
      c.order.forall(v => v == c.root || at.get(c.parent(v)).exists(_ < at(v)))
  }

  property("each subtree is contiguous and dropped whole when keep rejects its root") =
    forAll(genCase) { c =>
      val reached = c.order.toSet
      val runs = c.order.indices.forall { i =>
        val v = c.order(i)
        val below = reached.count(u => u == v || isAncestor(c, v, u))
        c.order.slice(i, i + below).forall(u => u == v || isAncestor(c, v, u))
      }
      val dropped = (0 until c.n).filter(v => isAncestor(c, c.root, v) && !c.keep(v))
        .forall(v => !reached(v) && reached.forall(u => !isAncestor(c, v, u)))
      runs && dropped
    }

  property("the visited nodes equal a recursive reference, in its order") = forAll(genCase) { c =>
    c.order.toVector == reference(c)
  }
}
