package rpqbench

import java.util.Arrays

/** Growable array of nanosecond samples. */
final class Samples(initialCapacity: Int = 1024) {
  private var buf = new Array[Long](initialCapacity)
  private var n = 0

  def add(x: Long): Unit = {
    if (n == buf.length) buf = Arrays.copyOf(buf, n * 2)
    buf(n) = x
    n += 1
  }
  def toSeq: Seq[Long] = Arrays.copyOf(buf, n).toSeq
}

/** The engines' lazy-expiration clock, replicated outside them: the first
  * tuple starts the clock, and a tuple whose timestamp is at least `slide`
  * after the last expiry runs expiry and restarts the clock at its own ts.
  */
final class SlideClock(slide: Long) {
  private var last = Long.MinValue

  /** Whether processing a tuple with timestamp `ts` crosses a slide boundary. */
  def tick(ts: Long): Boolean =
    if (last == Long.MinValue) { last = ts; false }
    else if (ts - last >= slide) { last = ts; true }
    else false
}
