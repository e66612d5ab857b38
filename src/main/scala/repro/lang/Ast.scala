package repro.lang

/** Abstract syntax for the VQuel subset implemented here (Chapter 6).
  *
  * Supported: `range of X is <source>` declarations; `retrieve [unique]
  * <targets> [where <pred>] [sort by <attr> [asc|desc]]`; path sources
  * over `Version`, `.Relations(...)`, `.Tuples`, graph traversal
  * `P(k)/D(k)/N(k)`; predicates with and/or/not and comparison operators;
  * aggregates with an inner `where`: `count` (tuples, NULL attribute or
  * not) and `sum`/`min`/`max`/`avg` (NULLs skipped, NULL over no value, as
  * in SQL); `abs()` and +,- arithmetic.
  *
  * Not implemented (documented deviations): `retrieve into`, the
  * `*_all`/`group by` aggregate forms, and tuple-level provenance
  * (`E.parents`) — see DESIGN.md.
  */
object Ast {

  /** A path source: base then navigation steps, e.g.
    * `Version(id=||v01||).Relations(name=||Emp||).Tuples`.
    */
  final case class SourceExpr(base: SourceBase, steps: List[Step])

  sealed trait SourceBase
  /** The set of all versions, optionally filtered. */
  final case class AllVersions(filter: Option[Pred]) extends SourceBase
  /** A previously declared iterator variable. */
  final case class VarBase(name: String) extends SourceBase

  sealed trait Step
  final case class RelationsStep(filter: Option[Pred]) extends Step
  case object TuplesStep extends Step
  /** Graph traversal: kind ∈ {P, D, N}; hops None = unbounded (P/D only). */
  final case class GraphStep(kind: Char, hops: Option[Int]) extends Step

  // ---- expressions --------------------------------------------------------

  sealed trait Expr
  /** Attribute path rooted at an iterator variable: `V.author.name`,
    * `E.all`, `E.employee_id`.
    */
  final case class PathExpr(varName: String, attrs: List[String]) extends Expr
  final case class Lit(value: Any) extends Expr
  /** Aggregate over a domain, e.g.
    * `count(E.employee_id where E.last_name = ||Smith||)` or
    * `count(V.Relations.Tuples)`: the argument is a source path rooted at
    * an iterator variable, optionally ending in an attribute.
    */
  final case class Agg(fn: String, source: SourceExpr, attr: Option[String],
                       where: Option[Pred]) extends Expr
  final case class Arith(op: Char, l: Expr, r: Expr) extends Expr
  final case class Abs(e: Expr) extends Expr

  // ---- predicates ---------------------------------------------------------

  sealed trait Pred
  final case class Cmp(op: String, l: Expr, r: Expr) extends Pred
  final case class And(l: Pred, r: Pred) extends Pred
  final case class Or(l: Pred, r: Pred) extends Pred
  final case class Not(p: Pred) extends Pred

  // ---- query --------------------------------------------------------------

  final case class RangeDecl(varName: String, source: SourceExpr)
  final case class SortKey(path: PathExpr, ascending: Boolean)
  final case class Query(
      ranges: List[RangeDecl],
      unique: Boolean,
      targets: List[(String, Expr)], // output column name -> expression
      where: Option[Pred],
      sortBy: List[SortKey],
  )
}
