package repro.core

/** The one budget search: bisect one knob until the budget just holds (δ for
  * LyreSplit, BC for AGGLO, α for LAST, θ for MP; DESIGN.md "One budget search").
  */
object Bisect {

  /** Up to `steps` probes, each at the midpoint of the range still open from
    * [lo, hi]. A fitting result moves the range up (lo = mid) when `upOnFit`,
    * else down (hi = mid); any other result moves it the other way. Yields
    * the fitting results in probe order, running probes lazily: a caller
    * that stops reading runs no further probe.
    */
  def fitting[A](lo: Double, hi: Double, steps: Int, upOnFit: Boolean)(
      probe: Double => A)(fits: A => Boolean): Iterator[A] = {
    var (l, h) = (lo, hi)
    Iterator.range(0, steps).flatMap { _ =>
      val mid = (l + h) / 2
      val a = probe(mid)
      val ok = fits(a)
      if (ok == upOnFit) l = mid else h = mid
      Option.when(ok)(a)
    }
  }

  /** The last fitting result, else the probe at the end of the range the
    * search moved away from: `lo` when a fit moves the range up, else `hi`.
    */
  def lastFit[A](lo: Double, hi: Double, steps: Int, upOnFit: Boolean)(
      probe: Double => A)(fits: A => Boolean): A =
    fitting(lo, hi, steps, upOnFit)(probe)(fits).reduceLeftOption((_, a) => a)
      .getOrElse(probe(if (upOnFit) lo else hi))
}
