package repro.core

/** Measures of an [[IntervalSet]] that only the tests use. */
object IntervalSetMeasures {
  implicit final class Measures(private val s: IntervalSet) extends AnyVal {
    /** Number of stored intervals (compactness measure). */
    def numIntervals: Int = s.intervals.length

    /** Symmetric difference size `|s Δ that|` (Chapter-7 undirected delta cost). */
    def symmetricDiffSize(that: IntervalSet): Long = s.size + that.size - 2 * s.intersectSize(that)
  }
}
