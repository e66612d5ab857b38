package repro.core

/** One committed version of a CVD.
  *
  * @param vid      dense 0-based version id (also its index in the graph)
  * @param parents  vids of the version(s) this one was derived from; empty
  *                 for the root, two or more for a merged version
  * @param records  the exact record-id set of the version
  * @param commitTs logical commit timestamp (monotone in vid)
  */
final case class Version(
    vid: Int,
    parents: Vector[Int],
    records: IntervalSet,
    commitTs: Long,
)

/** The version graph of a CVD: a DAG of [[Version]]s (Chapter 4, Fig 4.2).
  *
  * Provides the statistics used throughout Chapter 5: the version-record
  * bipartite graph sizes (|V|, |R|, |E|), edge weights
  * `w(vi, vj) = |R(vi) ∩ R(vj)|`, and the DAG→tree transform of §5.3.1.
  */
final case class VersionGraph(versions: Vector[Version]) {
  require(
    versions.zipWithIndex.forall { case (v, i) => v.vid == i },
    "versions must be dense and ordered by vid")

  /** Number of versions |V|. */
  def numVersions: Int = versions.length

  /** All records ever committed, R. */
  lazy val allRecords: IntervalSet =
    IntervalSet.unionAll(versions.map(_.records))

  /** |R|: number of distinct records in the CVD. */
  lazy val numRecords: Long = allRecords.size

  /** |E|: bipartite version-record edge count = Σ|R(vi)|. */
  lazy val numBipartiteEdges: Long = versions.iterator.map(_.records.size).sum

  /** Edge weight w(vi, vj): records shared by two versions. */
  def weight(i: Int, j: Int): Long =
    versions(i).records.intersectSize(versions(j).records)

  /** Children adjacency (derived from parent lists). */
  lazy val children: Vector[Vector[Int]] = Graphs.children(numVersions, versions(_).parents)

  /** Whether any version has more than one parent (CUR-style DAG). */
  lazy val hasMerges: Boolean = versions.exists(_.parents.length > 1)

  /** §5.3.1: transform the DAG into a version tree T̂ by keeping, for each
    * merged version, only the incoming edge with the highest weight.
    * Returns the parent vid per version (-1 for roots).
    */
  lazy val treeParent: Vector[Int] =
    versions.map { v =>
      if (v.parents.isEmpty) -1
      else if (v.parents.length == 1) v.parents.head
      else v.parents.maxBy(p => weight(p, v.vid))
    }

  /** |R̂|: records conceptually duplicated by the DAG→tree transform —
    * for each merged version, the records inherited from dropped parents
    * but not from the kept parent (they are "re-created" in T̂).
    */
  lazy val numDuplicatedRecords: Long =
    versions.iterator.map { v =>
      if (v.parents.length <= 1) 0L
      else {
        val kept = treeParent(v.vid)
        val fromKept = v.records.intersect(versions(kept).records)
        val others = IntervalSet.unionAll(
          v.parents.filter(_ != kept).map(p => v.records.intersect(versions(p).records)))
        others.diff(fromKept).size
      }
    }.sum

  /** Children adjacency of the §5.3.1 version tree. */
  lazy val treeChildren: Vector[Vector[Int]] = Graphs.children(numVersions, v => List(treeParent(v)))
}
