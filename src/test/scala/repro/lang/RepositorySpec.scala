package repro.lang

import org.scalatest.funsuite.AnyFunSuite

/** The version graph of a [[Repository]]: construction checks, and the
  * `P(k)`/`D(k)`/`N(k)` traversals over it.
  */
class RepositorySpec extends AnyFunSuite {

  private def repo(parents: (String, Vector[String])*): Repository =
    Repository(parents.toVector.map { case (id, ps) => VersionMeta(id, "", 0, "", ps, Map.empty) })

  test("a parent id that names no version is rejected at construction") {
    val e = intercept[IllegalArgumentException](
      repo("a" -> Vector(), "b" -> Vector("zz"), "c" -> Vector("b")))
    assert(e.getMessage.contains("version b names unknown parent zz"))
  }

  test("a repeated version id is rejected at construction") {
    val e = intercept[IllegalArgumentException](
      repo("a" -> Vector(), "b" -> Vector("a"), "b" -> Vector("a")))
    assert(e.getMessage.contains("version id b repeats"))
  }

  test("ancestors, descendants and neighbors follow hops in repository order") {
    // a → b → d, a → c → d (merge), d → e
    val r = repo("a" -> Vector(), "b" -> Vector("a"), "c" -> Vector("a"),
      "d" -> Vector("b", "c"), "e" -> Vector("d"))
    def ids(vs: Vector[VersionMeta]) = vs.map(_.id)
    assert(ids(r.ancestors("e", 1)) == Vector("d"))
    assert(ids(r.ancestors("e", Int.MaxValue)) == Vector("a", "b", "c", "d"))
    assert(ids(r.descendants("a", 2)) == Vector("b", "c", "d"))
    assert(ids(r.descendants("e", 3)).isEmpty)
    assert(ids(r.neighbors("b", 1)) == Vector("a", "d"))
    assert(ids(r.neighbors("b", 2)) == Vector("a", "c", "d", "e"))
  }
}
