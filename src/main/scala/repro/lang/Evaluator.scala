package repro.lang

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{col, lit}
import org.apache.spark.sql.types.{DecimalType, DoubleType, FloatType, IntegerType, LongType, ShortType, StringType}
import Ast._

/** VQuel evaluator (Chapter 6): executes a parsed query against a
  * [[Repository]].
  *
  * Iterators over versions/relations are enumerated on the driver (there
  * are few of them — they are metadata); iterators over tuples delegate
  * to the backing DataFrames. Aggregates whose inner predicate is a
  * simple column-vs-literal condition are pushed down to Spark as
  * `df.where(...).agg(...)`; other aggregates fall back to collected rows.
  * An enumerated tuple iterator's rows are collected through its top-level
  * `where` conjuncts that Spark compares as the driver does, so only the
  * rows that can satisfy the `where` reach the driver, which still checks
  * the whole `where`. Predicates follow SQL's three-valued logic, as Spark
  * and DuckDB do: a comparison with a NULL side is unknown, and a filter
  * keeps only what is true.
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
  type ResultRow = Vector[(String, Any)]

  final case class Result(columns: Vector[String], rows: Vector[Vector[Any]])

  def run(repo: Repository, queryText: String): Result =
    run(repo, Parser.parse(queryText))

  def run(repo: Repository, q: Query): Result = {
    val ev = new Eval(repo, q)
    ev.execute()
  }

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

    /** The top-level `where` conjuncts `E.attr op literal` of each
      * enumerated tuple iterator E: a binding in which one of them is not
      * true fails the whole `where`, so E's domain can leave those tuples out.
      */
    private val pushed: Map[String, List[Cmp]] = {
      def conjuncts(p: Pred): List[Pred] = p match {
        case And(l, r) => conjuncts(l) ++ conjuncts(r)
        case other     => List(other)
      }
      q.where.toList.flatMap(conjuncts).collect {
        case c @ Cmp(_, PathExpr(v, _ :: Nil), Lit(_))
            if enumerated(v) && declared(v).steps.lastOption.contains(TuplesStep) => v -> c
      }.groupMap(_._1)(_._2)
    }

    // Cache collected tuple rows per (version, relation, pushed conjuncts).
    private val tupleCache =
      scala.collection.mutable.Map.empty[(String, String, List[Cmp]), Vector[Map[String, Any]]]

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
    def domainOf(name: String, binding: Binding, filter: List[Cmp] = Nil): Vector[Value] =
      domain(declared.getOrElse(name,
        throw new IllegalArgumentException(s"undeclared iterator '$name'")), binding, filter)

    def domain(src: SourceExpr, binding: Binding, filter: List[Cmp] = Nil): Vector[Value] =
      src.steps.foldLeft(baseValues(src.base, binding)) { (vals, step) =>
        vals.flatMap(applyStep(_, step, binding, filter))
      }

    private def applyStep(v: Value, step: Step, binding: Binding, filter: List[Cmp]): Vector[Value] =
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
      * Spark can evaluate.
      */
    private def tupleRows(vid: String, rel: String, df: DataFrame,
                          filter: List[Cmp]): Vector[Map[String, Any]] =
      tupleCache.getOrElseUpdate((vid, rel, filter), {
        val cols = df.columns
        filter.flatMap(sparkCmp(df, _)).foldLeft(df)(_ where _)
          .collect().toVector.map(r => cols.zipWithIndex.map {
            case (c, i) => c -> r.get(i)
          }.toMap)
      })

    /** Conjunct `c` as a filter on `df`, when Spark's comparison agrees
      * with [[compare]]'s: a numeric column against a number literal, both
      * compared as `Double`, or a string column tested for (in)equality
      * with a string literal. Any other pairing is left to the driver.
      */
    private def sparkCmp(df: DataFrame, c: Cmp): Option[Column] = c match {
      case Cmp(op, PathExpr(_, a :: Nil), Lit(x)) if a != "all" =>
        df.schema.find(_.name == a).map(_.dataType).collect {
          case IntegerType | LongType | ShortType | FloatType | DoubleType | _: DecimalType
              if x.isInstanceOf[Double] => sparkOp(op, col(a), lit(x))
          case StringType if x.isInstanceOf[String] && (op == "=" || op == "!=") =>
            sparkOp(op, col(a), lit(x))
        }
      case _ => None
    }

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

    /** Aggregate evaluation with DataFrame pushdown when the domain is a
      * relation's tuples and the inner predicate is column-vs-literal.
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
      // Pushdown attempt: source resolves to relations, final step Tuples.
      pushdownAgg(fn, effSrc, attrName, where, binding) match {
        case Some(x) => x
        case None =>
          val dom = domain(effSrc, binding)
          val vals = dom.flatMap { v =>
            val b2 = bindSelf(effSrc, v, binding)
            if (where.forall(holds(_, Some(v), b2)))
              Some(attrName.map(a => attr(v, List(a))).getOrElse(v))
            else None
          }
          fn match {
            case "count" => vals.size.toLong
            case "sum"   => vals.map(num).sum
            case "min"   => if (vals.isEmpty) null else vals.map(num).min
            case "max"   => if (vals.isEmpty) null else vals.map(num).max
            case "avg"   => if (vals.isEmpty) null else vals.map(num).sum / vals.size
          }
      }
    }

    /** When the aggregate domain is a declared var, its name can appear in
      * the inner where; bind the candidate value to it.
      */
    private def bindSelf(src: SourceExpr, v: Value, binding: Binding): Binding =
      declared.collectFirst { case (n, s) if s == src && !binding.contains(n) => n }
        .map(n => binding + (n -> v)).getOrElse(binding)

    private def pushdownAgg(fn: String, src: SourceExpr, attrName: Option[String],
                            where: Option[Pred], binding: Binding): Option[Any] = {
      // Domain must end in Tuples over exactly one relation.
      if (!src.steps.lastOption.contains(TuplesStep)) return None
      val relSrc = SourceExpr(src.base, src.steps.dropRight(1))
      val rels = try domain(relSrc, binding) catch { case _: Exception => return None }
      val dfs = rels.collect { case RelationVal(_, _, df) => df }
      if (dfs.isEmpty) return Some(if (fn == "count") 0L else null)
      // Inner predicate must reference only tuple columns vs literals.
      val aggVar = declared.collectFirst {
        case (n, s) if s == src && !binding.contains(n) => n
      }
      def toColumn(p: Pred): Option[Column] = p match {
        case And(l, r) => for (a <- toColumn(l); b <- toColumn(r)) yield a && b
        case Or(l, r)  => for (a <- toColumn(l); b <- toColumn(r)) yield a || b
        case Not(x)    => toColumn(x).map(!_)
        case Cmp(op, PathExpr(v, a :: Nil), Lit(x))
            if aggVar.contains(v) || v.isEmpty =>
          Some(sparkOp(op, col(a), lit(x)))
        case _ => None
      }
      val filterCol = where match {
        case None => Some(None)
        case Some(p) => toColumn(p).map(Some(_))
      }
      filterCol.map { fc =>
        val filtered = dfs.map(df => fc.map(df.where).getOrElse(df))
        import org.apache.spark.sql.functions._
        fn match {
          case "count" => filtered.map(_.count()).sum
          case other =>
            val a = attrName.getOrElse(return None)
            val per = filtered.flatMap { df =>
              val r = df.agg(Map(a -> other)).collect()(0)
              Option(r.get(0)).map(x => num(x))
            }
            if (per.isEmpty) null
            else other match {
              case "sum" => per.sum
              case "min" => per.min
              case "max" => per.max
              case "avg" => return None // cross-relation avg needs counts; fall back
            }
        }
      }
    }

    private def num(x: Any): Double = x match {
      case d: Double => d
      case f: Float => f.toDouble
      case l: Long => l.toDouble
      case i: Int => i.toDouble
      case s: Short => s.toDouble
      case b: java.math.BigDecimal => b.doubleValue
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
        case And(l, r) => evalPred(l, self, binding) match {
          case f @ Some(false) => f
          case x => evalPred(r, self, binding) match {
            case f @ Some(false) => f
            case y => if (x.isEmpty || y.isEmpty) None else y
          }
        }
        case Or(l, r) => evalPred(l, self, binding) match {
          case t @ Some(true) => t
          case x => evalPred(r, self, binding) match {
            case t @ Some(true) => t
            case y => if (x.isEmpty || y.isEmpty) None else y
          }
        }
        case Not(x) => evalPred(x, self, binding).map(!_)
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
