package repro.lang

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{col, count, lit, max, min, sum}
import org.apache.spark.sql.types._
import repro.core.model.CvdStore
import Ast._

/** VQuel evaluator (Chapter 6): executes a parsed query against a
  * [[Repository]].
  *
  * Iterators over versions/relations are enumerated on the driver (there
  * are few of them — they are metadata); iterators over tuples delegate
  * to the backing DataFrames. A version's relations form one conceptual
  * Record table, the union of their fields (Fig 6.1), so an attribute a
  * tuple lacks is NULL. Predicates follow SQL's three-valued logic, as
  * Spark and DuckDB do: a comparison with a NULL side is unknown, and a
  * filter keeps only what is true.
  *
  * One rule decides what Spark evaluates: a predicate pushes into a
  * relation's DataFrame when it is and/or/not over comparisons of the
  * tuple's attributes with literals that Spark compares as the driver
  * does. An enumerated tuple iterator's rows are collected through its
  * top-level `where` conjuncts that push, and the driver still checks the
  * whole `where`. An aggregate over a relation's tuples is one Spark action
  * when its inner `where` pushes, and a fold of the collected tuples when
  * not; one reducer combines the partials with SQL's NULL rules: `count`
  * counts tuples, NULL attribute or not; `sum`/`min`/`max`/`avg` skip
  * NULLs and are NULL over no non-NULL value. A relation that is itself a
  * store checkout ([[CvdStore.checkedOut]]) answers a `count` with no inner
  * `where` from its version's record set, with no Spark job (Ch.6 over
  * split-by-rlist: a version's tuple count is the length of its rlist).
  *
  * A `range` variable is *enumerated* (appears in the outer nested loop)
  * if it is referenced outside aggregate arguments or feeds another
  * enumerated variable's source; a variable referenced only inside
  * aggregates is re-evaluated per outer binding as the aggregate's domain
  * (the thesis's implicit grouping semantics, §6.3.3).
  */
object Evaluator {

  sealed trait Value
  final case class VersionVal(v: VersionMeta) extends Value
  final case class RelationVal(owner: VersionMeta, name: String, df: DataFrame) extends Value
  final case class TupleVal(ownerVersion: String, relName: String,
                            row: Map[String, Any]) extends Value

  type Binding = Map[String, Value]

  final case class Result(columns: Vector[String], rows: Vector[Vector[Any]])

  /** An aggregate's state over some tuples: `n` tuples, and the count,
    * sum, min and max of their `k` non-NULL values.
    */
  private final case class Partial(n: Long, k: Long = 0, sum: Double = 0,
                                   min: Double = Double.PositiveInfinity,
                                   max: Double = Double.NegativeInfinity) {
    def +(o: Partial): Partial =
      Partial(n + o.n, k + o.k, sum + o.sum, math.min(min, o.min), math.max(max, o.max))

    def result(fn: String): Any = fn match {
      case "count"     => n
      case _ if k == 0 => null
      case "sum"       => sum
      case "min"       => min
      case "max"       => max
      case "avg"       => sum / k
    }
  }

  def run(repo: Repository, queryText: String): Result =
    run(repo, Parser.parse(queryText))

  def run(repo: Repository, q: Query): Result = new Eval(repo, q).execute()

  private final class Eval(repo: Repository, q: Query) {
    private val declared: Map[String, SourceExpr] =
      q.ranges.map(r => r.varName -> r.source).toMap
    private val declOrder: List[String] = q.ranges.map(_.varName)

    // ---- variable classification ------------------------------------------

    private def varsOutsideAgg(e: Expr): Set[String] = e match {
      case PathExpr(v, _)   => Set(v)
      case Lit(_)           => Set.empty
      case Agg(_, _, _, _)  => Set.empty
      case Arith(_, l, r)   => varsOutsideAgg(l) ++ varsOutsideAgg(r)
      case Abs(x)           => varsOutsideAgg(x)
    }
    private def varsOutsideAgg(p: Pred): Set[String] = p match {
      case Cmp(_, l, r) => varsOutsideAgg(l) ++ varsOutsideAgg(r)
      case And(l, r)    => varsOutsideAgg(l) ++ varsOutsideAgg(r)
      case Or(l, r)     => varsOutsideAgg(l) ++ varsOutsideAgg(r)
      case Not(x)       => varsOutsideAgg(x)
    }

    private val enumerated: Set[String] = {
      var used = q.targets.map(_._2).flatMap(varsOutsideAgg).toSet ++
        q.where.toSeq.flatMap(varsOutsideAgg) ++
        q.sortBy.map(_.path.varName)
      // Close over source dependencies: the base var of an enumerated
      // var's source must itself be enumerated.
      var changed = true
      while (changed) {
        changed = false
        for ((name, src) <- declared; if used(name)) src.base match {
          case VarBase(b) if !used(b) => used += b; changed = true
          case _                      =>
        }
      }
      used.intersect(declared.keySet)
    }

    /** The top-level `where` conjuncts of each enumerated tuple iterator E
      * that name no other iterator: a binding in which one of them is not
      * true fails the whole `where`, so E's domain can leave those tuples out.
      */
    private val pushed: Map[String, List[Pred]] = {
      def conjuncts(p: Pred): List[Pred] = p match {
        case And(l, r) => conjuncts(l) ++ conjuncts(r)
        case other     => List(other)
      }
      q.where.toList.flatMap(conjuncts).map(c => varsOutsideAgg(c).toList -> c).collect {
        case (v :: Nil, c) if enumerated(v) && declared(v).steps.lastOption.contains(TuplesStep) => v -> c
      }.groupMap(_._1)(_._2)
    }

    // Cache collected tuple rows per (version, relation, pushed conjuncts).
    private val tupleCache =
      scala.collection.mutable.Map.empty[(String, String, List[Pred]), Vector[Map[String, Any]]]

    // ---- domain evaluation ------------------------------------------------

    private def baseValues(base: SourceBase, binding: Binding): Vector[Value] =
      base match {
        case AllVersions(f) =>
          repo.versions.map(VersionVal)
            .filter(v => f.forall(holds(_, Some(v), binding)))
        case VarBase(name) =>
          binding.get(name) match {
            case Some(v) => Vector(v)
            case None =>
              // Referenced var is itself aggregate-only: expand its domain.
              domainOf(name, binding)
          }
      }

    /** The domain of iterator `name`; `filter` restricts a `Tuples` step. */
    def domainOf(name: String, binding: Binding, filter: List[Pred] = Nil): Vector[Value] =
      domain(declared.getOrElse(name,
        throw new IllegalArgumentException(s"undeclared iterator '$name'")), binding, filter)

    def domain(src: SourceExpr, binding: Binding, filter: List[Pred] = Nil): Vector[Value] =
      src.steps.foldLeft(baseValues(src.base, binding)) { (vals, step) =>
        vals.flatMap(applyStep(_, step, binding, filter))
      }

    private def applyStep(v: Value, step: Step, binding: Binding, filter: List[Pred]): Vector[Value] =
      (v, step) match {
        case (VersionVal(ver), RelationsStep(f)) =>
          ver.relations.toVector.sortBy(_._1).map { case (n, df) =>
            RelationVal(ver, n, df)
          }.filter(r => f.forall(holds(_, Some(r), binding)))
        case (RelationVal(owner, name, df), TuplesStep) =>
          tupleRows(owner.id, name, df, filter).map(TupleVal(owner.id, name, _))
        case (VersionVal(ver), GraphStep(kind, hops)) =>
          val k = hops.getOrElse(Int.MaxValue)
          val vs = kind match {
            case 'P' => repo.ancestors(ver.id, k)
            case 'D' => repo.descendants(ver.id, k)
            case 'N' => repo.neighbors(ver.id, k)
          }
          vs.map(VersionVal)
        case other =>
          throw new IllegalArgumentException(s"cannot apply $step to ${other._1.getClass.getSimpleName}")
      }

    /** The rows of `df`, less those that fail a conjunct of `filter` that
      * Spark can evaluate. Each conjunct names only the tuple's iterator.
      */
    private def tupleRows(vid: String, rel: String, df: DataFrame,
                          filter: List[Pred]): Vector[Map[String, Any]] =
      tupleCache.getOrElseUpdate((vid, rel, filter), {
        val cols = df.columns.toSeq
        filter.flatMap(sparkPred(df, _, _ => true)).foldLeft(df)(_ where _)
          .collect().toVector.map(r => cols.zip(r.toSeq).toMap)
      })

    /** `p` as a filter on `df` that keeps exactly the tuples [[holds]]
      * keeps, or `None`: the one pushdown rule. `p` must be and/or/not over
      * comparisons of an attribute `X.a`, with `tupleVar(X)`, against a
      * literal that Spark compares as [[compare]] does: a numeric column
      * against a number, both as `Double`, or a string column tested for
      * (in)equality with a string. An attribute `df` lacks is NULL, so its
      * comparison is unknown, and Spark's and/or/not are three-valued.
      */
    private def sparkPred(df: DataFrame, p: Pred, tupleVar: String => Boolean): Option[Column] = p match {
      case And(l, r) => for (a <- sparkPred(df, l, tupleVar); b <- sparkPred(df, r, tupleVar)) yield a && b
      case Or(l, r)  => for (a <- sparkPred(df, l, tupleVar); b <- sparkPred(df, r, tupleVar)) yield a || b
      case Not(x)    => sparkPred(df, x, tupleVar).map(!_)
      case Cmp(op, PathExpr(v, a :: Nil), Lit(x)) if tupleVar(v) && a != "all" =>
        typeOf(df, a) match {
          case None => Some(lit(null).cast(BooleanType))
          case Some(_: NumericType) if x.isInstanceOf[Double] => Some(sparkOp(op, col(a), lit(x)))
          case Some(StringType) if x.isInstanceOf[String] && (op == "=" || op == "!=") =>
            Some(sparkOp(op, col(a), lit(x)))
          case _ => None
        }
      case _ => None
    }

    private def typeOf(df: DataFrame, a: String): Option[DataType] =
      df.schema.find(_.name == a).map(_.dataType)

    private def sparkOp(op: String, c: Column, x: Column): Column = op match {
      case "="  => c === x
      case "!=" => c =!= x
      case "<"  => c < x
      case "<=" => c <= x
      case ">"  => c > x
      case ">=" => c >= x
    }

    // ---- expression evaluation --------------------------------------------

    /** Attribute access on a value; `self` handles source-filter paths. */
    private def attr(v: Value, names: List[String]): Any = (v, names) match {
      case (_, Nil)                      => v
      case (VersionVal(m), a :: rest) =>
        val x: Any = a match {
          case "id" | "commit_id"                 => m.id
          case "commit_msg" | "commit_message" | "msg" => m.commitMsg
          case "creation_ts" | "commit_ts"        => m.creationTs
          case "author"                           => m
          case "name" => m.author // after .author
          case "all"  => m.id
          case other  => throw new IllegalArgumentException(s"unknown version attribute '$other'")
        }
        x match {
          case mm: VersionMeta if rest.nonEmpty => attr(VersionVal(mm), rest)
          case _ if rest.isEmpty                => x
          case _ if rest == List("name")        => m.author
          case _ => throw new IllegalArgumentException(s"cannot navigate $rest")
        }
      case (RelationVal(_, name, _), a :: Nil) =>
        a match {
          case "name" => name
          case other  => throw new IllegalArgumentException(s"unknown relation attribute '$other'")
        }
      case (TupleVal(_, _, row), a :: Nil) =>
        // Absent attributes evaluate to NULL: the conceptual Record table
        // is the union of all fields across relations (Fig 6.1).
        if (a == "all") row else row.getOrElse(a, null)
      case _ =>
        throw new IllegalArgumentException(s"cannot evaluate attribute path $names on $v")
    }

    private def evalExpr(e: Expr, self: Option[Value], binding: Binding): Any = e match {
      case Lit(x)         => x
      case PathExpr("", as) =>
        attr(self.getOrElse(throw new IllegalArgumentException("no self context")), as)
      case PathExpr(v, as) =>
        binding.get(v) match {
          case Some(value) => attr(value, as)
          case None => throw new IllegalArgumentException(
            s"iterator '$v' used as a scalar but not bound (aggregate-only vars " +
              "may only appear inside aggregates)")
        }
      case Arith(op, l, r) =>
        val a = num(evalExpr(l, self, binding)); val b = num(evalExpr(r, self, binding))
        if (op == '+') a + b else a - b
      case Abs(x) => math.abs(num(evalExpr(x, self, binding)))
      case Agg(fn, src, attrName, where) =>
        evalAgg(fn, src, attrName, where, binding)
    }

    /** An aggregate over the domain `src`: the [[Partial]]s of its
      * relations' tuples, each by [[sparkPartial]] where it can and by a
      * driver fold where not, or of its other values on the driver.
      */
    private def evalAgg(fn: String, src: SourceExpr, attrName: Option[String],
                        where: Option[Pred], binding: Binding): Any = {
      // If the argument is a bare enumerated/declared var, expand its
      // declared source under the current binding (minus its own entry) —
      // implicit grouping semantics.
      val effSrc = src match {
        case SourceExpr(VarBase(name), Nil) if declared.contains(name) && !binding.contains(name) =>
          declared(name)
        case s => s
      }
      // The declared var whose domain this is may appear in the inner
      // where, bound to each candidate value.
      val domVar = declared.collectFirst { case (n, s) if s == effSrc && !binding.contains(n) => n }
      def fold(dom: Vector[Value]): Partial = {
        val vals = dom.filter(v => where.forall(holds(_, Some(v), domVar.fold(binding)(n => binding + (n -> v)))))
          .map(v => attrName.map(a => attr(v, List(a))).getOrElse(v))
        val xs = if (fn == "count") Nil else vals.filter(_ != null).map(num)
        xs.foldLeft(Partial(vals.size.toLong))((p, x) => p + Partial(0, 1, x, x, x))
      }
      val parts = effSrc.steps match {
        case init :+ TuplesStep =>
          domain(SourceExpr(effSrc.base, init), binding).map { r =>
            val pushed = r match {
              case RelationVal(_, _, df) => sparkPartial(fn, df, attrName, where, v => v.isEmpty || domVar.contains(v))
              case _                     => None
            }
            pushed.getOrElse(fold(applyStep(r, TuplesStep, binding, Nil)))
          }
        case _ => Vector(fold(domain(effSrc, binding)))
      }
      parts.foldLeft(Partial(0))(_ + _).result(fn)
    }

    /** The partial of the tuples of `df` on which `where` holds, or `None`
      * when `where` does not push into `df` or a value aggregate's attribute
      * is a non-numeric column. An unfiltered `count` of a store checkout
      * is the size of its version's record set, which the driver holds, so
      * it runs no Spark job; every other partial is one Spark action.
      */
    private def sparkPartial(fn: String, df: DataFrame, attrName: Option[String],
                             where: Option[Pred], tupleVar: String => Boolean): Option[Partial] = {
      val valueAggs =
        if (fn == "count") Some(Nil)
        else attrName.flatMap(a => typeOf(df, a) match {
          case None                 => Some(lit(null)) // absent: NULL in every tuple
          case Some(_: NumericType) => Some(col(a))
          case _                    => None
        }).map(_.cast(DoubleType)).map(v => Seq(count(v), sum(v), min(v), max(v)))
      val records = if (fn == "count" && where.isEmpty) CvdStore.checkedOut(df) else None
      records.map(rids => Partial(rids.size)).orElse(for {
        aggs <- valueAggs
        rows <- where.fold(Option(df))(sparkPred(df, _, tupleVar).map(df.where))
      } yield {
        val r = rows.agg(count(lit(1)), aggs: _*).collect()(0)
        if (aggs.isEmpty || r.getLong(1) == 0) Partial(r.getLong(0))
        else Partial(r.getLong(0), r.getLong(1), r.getDouble(2), r.getDouble(3), r.getDouble(4))
      })
    }

    /** `x` as a number: a value of any Spark `NumericType`, or a numeral. */
    private def num(x: Any): Double = x match {
      case n: java.lang.Number => n.doubleValue
      case s: String => s.toDouble
      case other => throw new IllegalArgumentException(s"not numeric: $other")
    }

    /** The order of two values, NULL first: `sort by`'s order, and the
      * order of two non-NULL values in a comparison.
      */
    private def compare(a: Any, b: Any): Int = (a, b) match {
      case (null, null) => 0
      case (null, _)    => -1
      case (_, null)    => 1
      case (x: String, y: String) => x.compareTo(y)
      case (x: Map[_, _], y: Map[_, _]) => if (x == y) 0 else 1
      case (x, y) =>
        try java.lang.Double.compare(num(x), num(y))
        catch { case _: Exception => x.toString.compareTo(y.toString) }
    }

    /** `p` under SQL's three-valued logic: `None` is unknown. A comparison
      * with a NULL side is unknown; `and`/`or` evaluate their right side
      * only when the left does not decide them.
      */
    private def evalPred(p: Pred, self: Option[Value], binding: Binding): Option[Boolean] =
      p match {
        case Cmp(op, l, r) =>
          (evalExpr(l, self, binding), evalExpr(r, self, binding)) match {
            case (null, _) | (_, null) => None
            case (a, b) =>
              val c = compare(a, b)
              Some(op match {
                case "="  => c == 0
                case "!=" => c != 0
                case "<"  => c < 0
                case "<=" => c <= 0
                case ">"  => c > 0
                case ">=" => c >= 0
              })
          }
        case And(l, r) => connect(l, r, decider = false, self, binding)
        case Or(l, r)  => connect(l, r, decider = true, self, binding)
        case Not(x)    => evalPred(x, self, binding).map(!_)
      }

    /** `l and r` (`decider` false) or `l or r` (true), three-valued. */
    private def connect(l: Pred, r: Pred, decider: Boolean, self: Option[Value],
                        binding: Binding): Option[Boolean] =
      evalPred(l, self, binding) match {
        case d @ Some(`decider`) => d
        case x => evalPred(r, self, binding) match {
          case d @ Some(`decider`) => d
          case y => if (x.isEmpty) None else y
        }
      }

    /** Whether `p` is true: a filter keeps a value only then. */
    private def holds(p: Pred, self: Option[Value], binding: Binding): Boolean =
      evalPred(p, self, binding).contains(true)

    // ---- main loop --------------------------------------------------------

    def execute(): Result = {
      val loopVars = declOrder.filter(enumerated)
      val rows = Vector.newBuilder[Vector[Any]]
      val colNames = dedupeNames(q.targets.map(_._1).toVector)

      // Sorting needs each row's sort keys, captured with the row.
      val sortKeys = Vector.newBuilder[Vector[Any]]
      def loop(vars: List[String], binding: Binding): Unit = vars match {
        case Nil =>
          if (q.where.forall(holds(_, None, binding))) {
            rows += q.targets.toVector.map { case (_, e) =>
              evalExpr(e, None, binding) match {
                case m: Map[_, _] => m.toSeq.sortBy(_._1.toString).toString
                case x            => x
              }
            }
            sortKeys += q.sortBy.toVector.map(k => evalExpr(k.path, None, binding))
          }
        case v :: rest =>
          for (value <- domainOf(v, binding, pushed.getOrElse(v, Nil)))
            loop(rest, binding + (v -> value))
      }
      loop(loopVars, Map.empty)

      var out = rows.result()
      if (q.sortBy.nonEmpty) {
        val keys = sortKeys.result()
        val idx = out.indices.sortWith { (i, j) =>
          val ki = keys(i); val kj = keys(j)
          val c = ki.zip(kj).zip(q.sortBy).iterator.map { case ((a, b), sk) =>
            val r = compare(a, b).sign
            if (sk.ascending) r else -r
          }.find(_ != 0).getOrElse(0)
          c < 0
        }
        out = idx.map(out).toVector
      }
      if (q.unique) out = out.distinct
      Result(colNames, out)
    }

    private def dedupeNames(names: Vector[String]): Vector[String] = {
      val seen = scala.collection.mutable.Map.empty[String, Int]
      names.map { n =>
        val k = seen.getOrElse(n, 0); seen(n) = k + 1
        if (k == 0) n else s"${n}_$k"
      }
    }
  }
}
