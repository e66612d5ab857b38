package repro.lang

import org.apache.spark.sql.DataFrame

/** The conceptual data model VQuel queries against (Fig 6.1): versions
  * with metadata, each holding named relations backed by DataFrames.
  * The version graph is encoded by `parents` (ids), with children derived.
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
  lazy val byId: Map[String, VersionMeta] = versions.map(v => v.id -> v).toMap

  lazy val childrenOf: Map[String, Vector[String]] = {
    val acc = scala.collection.mutable.Map.empty[String, Vector[String]]
      .withDefaultValue(Vector.empty)
    for (v <- versions; p <- v.parents) acc(p) = acc(p) :+ v.id
    acc.toMap.withDefaultValue(Vector.empty)
  }

  /** Ancestors within `hops` (Int.MaxValue = all) — VQuel's `P(k)`. */
  def ancestors(id: String, hops: Int): Vector[VersionMeta] = within(id, hops, byId(_).parents)

  /** Descendants within `hops` — VQuel's `D(k)`. */
  def descendants(id: String, hops: Int): Vector[VersionMeta] = within(id, hops, childrenOf)

  /** Versions exactly within `hops` undirected hops — VQuel's `N(k)`. */
  def neighbors(id: String, hops: Int): Vector[VersionMeta] =
    within(id, hops, v => byId(v).parents ++ childrenOf(v))

  /** Versions reached from `id` in 1 to `hops` steps of `next`, in
    * repository order: a breadth-first search.
    */
  private def within(id: String, hops: Int, next: String => Seq[String]): Vector[VersionMeta] = {
    var frontier = Set(id); var seen = Set(id); var h = 0
    while (frontier.nonEmpty && h < hops) {
      frontier = frontier.flatMap(next) -- seen
      seen ++= frontier; h += 1
    }
    versions.filter(v => seen(v.id) && v.id != id)
  }
}
