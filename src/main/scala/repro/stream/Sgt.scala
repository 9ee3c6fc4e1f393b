package repro.stream

/** Edge operation type of a streaming graph tuple (paper Definition 2). */
sealed trait Op
object Op {
  case object Insert extends Op
  case object Delete extends Op
}

/** Streaming graph tuple: `(τ, (u,v), l, op)` (paper Definition 2).
  *
  * `ts` is the event (application) timestamp assigned by the source; streams
  * arrive in non-decreasing `ts` order (paper §2), and [[SlideClock]] rejects
  * a tuple that breaks it.
  */
final case class Sgt(ts: Long, src: Long, dst: Long, label: String, op: Op = Op.Insert)

/** Time-based sliding window configuration (paper Definitions 4–5).
  *
  * @param size  `|W|`, the window length in time units
  * @param slide `β`, the slide interval: expiry runs every `β` time units
  *              (eager evaluation of arrivals, lazy expiration — §2)
  */
final case class WindowSpec(size: Long, slide: Long) {
  require(size > 0, s"window size must be positive: $size")
  require(slide > 0, s"slide interval must be positive: $slide")

  /** Earliest timestamp (exclusive) still inside the window ending at `endTs`:
    * contents are `{ t : endTs − |W| < t.ts ≤ endTs }`.
    */
  def lowerBound(endTs: Long): Long = endTs - size
}

/** Lazy-expiration clock (paper §2): the first tuple starts it, and a tuple
  * whose timestamp is at least `slide` after the last expiry triggers the
  * next expiry and restarts the clock at its own timestamp. Timestamps must
  * not decrease; equal ones are fine.
  */
final class SlideClock(slide: Long) {
  private var lastExpiryAt: Long = Long.MinValue
  private var latest: Long = Long.MinValue

  /** Whether processing a tuple with timestamp `ts` runs expiry. Throws an
    * `IllegalArgumentException`, changing nothing, if `ts` is below the
    * latest timestamp seen.
    */
  def tick(ts: Long): Boolean = {
    require(ts >= latest, s"out-of-order timestamp $ts: the stream is already at $latest")
    latest = ts
    if (lastExpiryAt == Long.MinValue) { lastExpiryAt = ts; false }
    else if (ts - lastExpiryAt >= slide) { lastExpiryAt = ts; true }
    else false
  }

  /** Raise the latest timestamp to `ts`, never lowering it: after an expiry
    * forced as of `ts`, a tuple below `ts` is rejected like any late one.
    */
  def raise(ts: Long): Unit = if (ts > latest) latest = ts
}
