package repro.core

import scala.collection.mutable.ArrayBuffer

/** An immutable set of record ids (`Long`) stored as sorted, disjoint,
  * non-adjacent inclusive intervals `[start, end]`.
  *
  * Versioned datasets are dominated by long runs of consecutive rids
  * (bulk inserts) with occasional punched holes (updates/deletes), so the
  * interval encoding keeps per-version record sets tiny on the driver
  * while supporting exact set algebra: the version-graph algorithms
  * (LyreSplit, NScale baselines, the Chapter-7 delta graph) all need
  * `|A ∩ B|`, `A ∪ B`, and `A \ B` between version record sets.
  */
final class IntervalSet private (private[core] val ivs: Vector[(Long, Long)]) {

  /** Number of rids in the set. */
  lazy val size: Long = ivs.iterator.map { case (s, e) => e - s + 1 }.sum

  def isEmpty: Boolean = ivs.isEmpty

  /** The intervals, sorted ascending. */
  def intervals: Vector[(Long, Long)] = ivs

  /** Membership test via binary search over interval starts. */
  def contains(x: Long): Boolean = {
    var lo = 0; var hi = ivs.length - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val (s, e) = ivs(mid)
      if (x < s) hi = mid - 1
      else if (x > e) lo = mid + 1
      else return true
    }
    false
  }

  /** Set union. O(|this| + |that|) in interval count. */
  def union(that: IntervalSet): IntervalSet = IntervalSet.unionAll(Seq(this, that))

  /** Set intersection. */
  def intersect(that: IntervalSet): IntervalSet = {
    val out = ArrayBuffer.empty[(Long, Long)]
    var i = 0; var j = 0
    while (i < ivs.length && j < that.ivs.length) {
      val (s1, e1) = ivs(i); val (s2, e2) = that.ivs(j)
      val s = math.max(s1, s2); val e = math.min(e1, e2)
      if (s <= e) out += ((s, e))
      if (e1 < e2) i += 1 else j += 1
    }
    new IntervalSet(out.toVector)
  }

  /** Size of the intersection without materializing it. */
  def intersectSize(that: IntervalSet): Long = {
    var acc = 0L; var i = 0; var j = 0
    while (i < ivs.length && j < that.ivs.length) {
      val (s1, e1) = ivs(i); val (s2, e2) = that.ivs(j)
      val s = math.max(s1, s2); val e = math.min(e1, e2)
      if (s <= e) acc += e - s + 1
      if (e1 < e2) i += 1 else j += 1
    }
    acc
  }

  /** Set difference `this \ that`. */
  def diff(that: IntervalSet): IntervalSet = {
    val out = ArrayBuffer.empty[(Long, Long)]
    var j = 0
    for ((s0, e0) <- ivs) {
      var s = s0
      // Skip subtrahend intervals wholly before the current interval.
      while (j < that.ivs.length && that.ivs(j)._2 < s0) j += 1
      var k = j
      while (s <= e0 && k < that.ivs.length && that.ivs(k)._1 <= e0) {
        val (ts, te) = that.ivs(k)
        if (ts > s) out += ((s, ts - 1))
        s = math.max(s, te + 1)
        k += 1
      }
      if (s <= e0) out += ((s, e0))
    }
    new IntervalSet(out.toVector)
  }

  /** The rid at 0-based rank `k` in sorted order (for sampling). */
  def atRank(k: Long): Long = {
    require(k >= 0 && k < size, s"rank $k out of [0, $size)")
    var rem = k
    var i = 0
    while (true) {
      val (s, e) = ivs(i)
      val len = e - s + 1
      if (rem < len) return s + rem
      rem -= len
      i += 1
    }
    throw new IllegalStateException("unreachable")
  }

  /** Remove `count` rids starting at rank `fromRank` (a contiguous run in
    * rank space, possibly spanning intervals). Used by the workload
    * generator to model chunky updates/deletes.
    */
  def removeRankRange(fromRank: Long, count: Long): IntervalSet = {
    if (count <= 0 || isEmpty) return this
    val f = math.min(math.max(0L, fromRank), size - 1)
    val c = math.min(count, size - f)
    val lo = atRank(f)
    val hi = atRank(f + c - 1)
    // All set members in value range [lo, hi] are exactly ranks [f, f+c).
    diff(IntervalSet.range(lo, hi))
  }

  /** All rids, ascending (only for small sets / tests). */
  def toSeq: Seq[Long] =
    ivs.flatMap { case (s, e) => s to e }

  override def equals(o: Any): Boolean = o match {
    case other: IntervalSet => ivs == other.ivs
    case _                  => false
  }
  override def hashCode: Int = ivs.hashCode
  override def toString: String = {
    val head = ivs.take(4).map { case (s, e) => s"[$s,$e]" }.mkString(",")
    s"IntervalSet($head${if (ivs.length > 4) ",…" else ""}; n=$size)"
  }
}

object IntervalSet {
  val empty: IntervalSet = new IntervalSet(Vector.empty)

  /** The inclusive range `[start, end]`; empty if `end < start`. */
  def range(start: Long, end: Long): IntervalSet =
    if (end < start) empty else new IntervalSet(Vector((start, end)))

  /** Normalize arbitrary (possibly overlapping/adjacent) intervals. */
  def fromIntervals(raw: Seq[(Long, Long)]): IntervalSet = {
    val sorted = raw.filter { case (s, e) => s <= e }.sortBy(_._1)
    val out = ArrayBuffer.empty[(Long, Long)]
    for ((s, e) <- sorted) {
      if (out.nonEmpty && s <= out.last._2 + 1) {
        val (ls, le) = out.last
        out(out.length - 1) = (ls, math.max(le, e))
      } else out += ((s, e))
    }
    new IntervalSet(out.toVector)
  }

  def fromSeq(xs: Seq[Long]): IntervalSet =
    fromIntervals(xs.map(x => (x, x)))

  /** Union of many sets. */
  def unionAll(sets: Iterable[IntervalSet]): IntervalSet = {
    val out = Vector.newBuilder[(Long, Long)]
    mergeUnion(sets)((s, e) => out += ((s, e)))
    new IntervalSet(out.result())
  }

  /** `unionAll(sets).size`, with no set built. */
  def unionSize(sets: Iterable[IntervalSet]): Long = {
    var n = 0L
    mergeUnion(sets)((s, e) => n += e - s + 1)
    n
  }

  /** Hands each maximal interval of the union of `sets` to `emit`, in
    * ascending order: a k-way merge of the already sorted members, with a
    * binary heap of member indices keyed by their next interval's start.
    * A member at the top of the heap skips, by one galloping search, every
    * interval that starts inside the run being merged, so members that
    * share most of their records (versions of one history) cost far fewer
    * heap steps than they have intervals. Nothing is flattened or sorted.
    */
  private def mergeUnion(sets: Iterable[IntervalSet])(emit: (Long, Long) => Unit): Unit = {
    val src = sets.iterator.map(_.ivs).filter(_.nonEmpty).toArray
    val pos = new Array[Int](src.length)
    val heads = src.map(_.head._1) // each member's next start, by member
    val heap = Array.range(0, src.length)
    var n = src.length
    def siftDown(h0: Int): Unit = {
      var h = h0
      var done = false
      while (!done) {
        val l = 2 * h + 1
        val c = if (l + 1 < n && heads(heap(l + 1)) < heads(heap(l))) l + 1 else l
        if (c < n && heads(heap(c)) < heads(heap(h))) {
          val t = heap(h); heap(h) = heap(c); heap(c) = t; h = c
        } else done = true
      }
    }
    for (h <- n / 2 - 1 to 0 by -1) siftDown(h)
    var curS = 0L; var curE = -1L; var open = false
    while (n > 0) {
      val i = heap(0)
      val ivs = src(i)
      if (!open || heads(i) > curE + 1) {
        if (open) emit(curS, curE)
        curS = heads(i); curE = heads(i); open = true
      }
      curE = math.max(curE, ivs(pos(i))._2)
      // The last of member i's intervals that starts inside the run: gallop,
      // then bisect. Those before it end before it does.
      var lo = pos(i); var step = 1
      while (lo + step < ivs.length && ivs(lo + step)._1 <= curE + 1) { lo += step; step *= 2 }
      var hi = math.min(lo + step, ivs.length) - 1
      while (lo < hi) {
        val mid = (lo + hi + 1) >>> 1
        if (ivs(mid)._1 <= curE + 1) lo = mid else hi = mid - 1
      }
      curE = math.max(curE, ivs(lo)._2)
      pos(i) = lo + 1
      if (pos(i) == ivs.length) { n -= 1; heap(0) = heap(n) }
      else heads(i) = ivs(pos(i))._1
      siftDown(0)
    }
    if (open) emit(curS, curE)
  }
}
