package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

class BisectSpec extends AnyFunSuite {

  test("a caller that stops after a fitting result runs no further probe") {
    val probed = mutable.ArrayBuffer.empty[Double]
    val fits = Bisect.fitting(0.0, 1.0, 10, upOnFit = false) { x => probed += x; x }(_ >= 0.3)
    // 0.5 fits (down), 0.25 does not (up), 0.375 fits: stop there.
    assert(fits.take(2).toList == List(0.5, 0.375))
    assert(probed == Seq(0.5, 0.25, 0.375))
  }

  test("the range moves as the caller says, and lastFit falls back to the end left behind") {
    val up = Bisect.fitting(0.0, 8.0, 3, upOnFit = true)(identity)(_ <= 5).toList
    assert(up == List(4.0, 5.0)) // 4 fits (up), 6 does not (down), 5 fits
    assert(Bisect.lastFit(0.0, 8.0, 3, upOnFit = true)(identity)(_ < 0) == 0.0)
    assert(Bisect.lastFit(0.0, 8.0, 3, upOnFit = false)(identity)(_ > 100) == 8.0)
    assert(Bisect.lastFit(0.0, 8.0, 3, upOnFit = false)(identity)(_ >= 3) == 3.0)
  }
}
