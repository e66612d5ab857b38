package repro.core

import org.scalatest.funsuite.AnyFunSuite

class VersionGraphSpec extends AnyFunSuite {

  /** Hand-built graph mirroring Fig 4.2: v0 root; v1, v2 branch from v0;
    * v3 merges v1 and v2.
    */
  private def fig42: VersionGraph = {
    val r0 = IntervalSet.range(0, 2)                      // {0,1,2}
    val r1 = IntervalSet.fromSeq(Seq(1, 2, 3))            // drops 0, adds 3
    val r2 = IntervalSet.fromSeq(Seq(2, 4, 5, 6))         // keeps 2, adds 4-6
    val r3 = IntervalSet.fromSeq(Seq(1, 2, 3, 4, 5, 6))   // merge of v1,v2
    VersionGraph(Vector(
      Version(0, Vector.empty, r0, 0),
      Version(1, Vector(0), r1, 1),
      Version(2, Vector(0), r2, 2),
      Version(3, Vector(1, 2), r3, 3),
    ))
  }

  test("basic statistics |V|, |R|, |E|") {
    val g = fig42
    assert(g.numVersions == 4)
    assert(g.numRecords == 7)                // rids 0..6
    assert(g.numBipartiteEdges == 3 + 3 + 4 + 6)
  }

  test("edge weights are intersection sizes") {
    val g = fig42
    assert(g.weight(0, 1) == 2)  // {1,2}
    assert(g.weight(0, 2) == 1)  // {2}
    assert(g.weight(1, 3) == 3)  // {1,2,3}
    assert(g.weight(2, 3) == 4)  // {2,4,5,6}
  }

  test("children derived from parents") {
    val g = fig42
    assert(g.children(0) == Vector(1, 2))
    assert(g.children(1) == Vector(3))
    assert(g.children(3).isEmpty)
  }

  test("DAG→tree keeps the max-weight parent (§5.3.1)") {
    val g = fig42
    assert(g.hasMerges)
    assert(g.treeParent == Vector(-1, 0, 0, 2)) // v3 keeps v2 (weight 4 > 3)
    assert(g.treeChildren(2) == Vector(3))
  }

  test("duplicated records |R̂| counts records re-created by dropped merge edges") {
    val g = fig42
    // v3 keeps v2; records inherited only via v1 = {1,2,3} \ {2,4,5,6} = {1,3}
    assert(g.numDuplicatedRecords == 2)
  }

  test("tree graphs have no duplicated records") {
    val g = VersionGraph(Vector(
      Version(0, Vector.empty, IntervalSet.range(0, 9), 0),
      Version(1, Vector(0), IntervalSet.range(5, 14), 1),
    ))
    assert(!g.hasMerges)
    assert(g.numDuplicatedRecords == 0)
    assert(g.treeParent == Vector(-1, 0))
  }

  test("vids must be dense and ordered") {
    assertThrows[IllegalArgumentException] {
      VersionGraph(Vector(Version(1, Vector.empty, IntervalSet.range(0, 1), 0)))
    }
  }
}
