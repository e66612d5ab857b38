package repro.perfbench

/** Minimal JSON writer for the flat records the benchmark prints. */
object Json {
  def value(x: Any): String = x match {
    case null                   => "null"
    case s: String              => quote(s)
    case b: Boolean             => b.toString
    case d: Double              =>
      require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
      java.lang.Double.toString(d)
    case n: Int                 => n.toString
    case n: Long                => n.toString
    case m: Map[_, _]           => obj(m.toSeq.map { case (k, v) => k.toString -> v })
    case xs: Seq[_]             => xs.map(value).mkString("[", ", ", "]")
    case other                  => quote(other.toString)
  }

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${quote(k)}: ${value(v)}" }.mkString("{", ", ", "}")

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b.append('"').toString
  }
}
