package repro.lang

import org.apache.spark.sql.DataFrame
import repro.core.Graphs

/** The conceptual data model VQuel queries against (Fig 6.1): versions
  * with metadata, each holding named relations backed by DataFrames.
  * The version graph is encoded by `parents` (ids), with children derived.
  * A [[Repository]] rejects (IllegalArgumentException) a repeated id and a
  * parent id that names none of its versions.
  *
  * A relation may be any DataFrame. One that a store's `checkout` returned,
  * as it was returned, is known to the [[Evaluator]] by its record set
  * ([[repro.core.model.CvdStore.checkedOut]]), so its unfiltered tuple
  * count runs no Spark job; anything derived from it is a plain DataFrame.
  */
final case class VersionMeta(
    id: String,
    commitMsg: String,
    creationTs: Long,
    author: String,
    parents: Vector[String],
    relations: Map[String, DataFrame],
)

final case class Repository(versions: Vector[VersionMeta]) {
  private val index: Map[String, Int] = versions.iterator.map(_.id).zipWithIndex.toMap
  for ((v, i) <- versions.zipWithIndex) {
    require(index(v.id) == i, s"repository: version id ${v.id} repeats")
    for (p <- v.parents) require(index.contains(p), s"repository: version ${v.id} names unknown parent $p")
  }
  private val parentsAt: Vector[Vector[Int]] = versions.map(_.parents.map(index))
  private val childrenAt: Vector[Vector[Int]] = Graphs.children(versions.length, parentsAt)

  lazy val byId: Map[String, VersionMeta] = versions.map(v => v.id -> v).toMap

  /** Ancestors within `hops` (Int.MaxValue = all) — VQuel's `P(k)`. */
  def ancestors(id: String, hops: Int): Vector[VersionMeta] = within(id, hops, parentsAt)

  /** Descendants within `hops` — VQuel's `D(k)`. */
  def descendants(id: String, hops: Int): Vector[VersionMeta] = within(id, hops, childrenAt)

  /** Versions exactly within `hops` undirected hops — VQuel's `N(k)`. */
  def neighbors(id: String, hops: Int): Vector[VersionMeta] =
    within(id, hops, i => parentsAt(i) ++ childrenAt(i))

  /** Versions reached from `id` in 1 to `hops` steps of `next`, in
    * repository order: a breadth-first search.
    */
  private def within(id: String, hops: Int, next: Int => Seq[Int]): Vector[VersionMeta] = {
    val start = index(id)
    var frontier = Set(start); var seen = Set(start); var h = 0
    while (frontier.nonEmpty && h < hops) {
      frontier = frontier.flatMap(next) -- seen
      seen ++= frontier; h += 1
    }
    versions.indices.collect { case i if seen(i) && i != start => versions(i) }.toVector
  }
}
