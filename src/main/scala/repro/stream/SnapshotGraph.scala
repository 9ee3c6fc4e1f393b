package repro.stream

import scala.collection.mutable

/** Mutable window-content graph `G_{W,τ}` (paper Definition 5).
  *
  * Keeps both out- and in-adjacency: the RAPQ/RSPQ insert paths scan outgoing
  * edges of the freshly reached vertex, while the expiry/reconnection paths
  * scan incoming edges of an expired node's vertex. Both walks run in place
  * ([[foreachOut]], [[foreachIn]]), building nothing per edge.
  *
  * A logical edge is `(src, dst, label)`; re-arrival of the same logical edge
  * refreshes its timestamp (we keep the max — the freshest copy defines
  * validity in the window). Explicit deletion removes the edge outright.
  *
  * Expiry touches only what is due: every arrival that sets an edge's
  * timestamp is queued in timestamp order, and [[pruneExpired]] pops the
  * queue's due head. A popped arrival removes its edge only if the edge's
  * stored timestamp is due too; one that a re-arrival has overtaken, or whose
  * edge was deleted, is skipped.
  */
final class SnapshotGraph {
  import SnapshotGraph.{ArrivalQueue, Edge, EdgeFn}

  private val out = mutable.LongMap.empty[mutable.HashMap[(Long, String), Long]]
  private val in  = mutable.LongMap.empty[mutable.HashMap[(Long, String), Long]]
  private var edgeCount = 0L
  private val arrivals = new ArrivalQueue

  /** Number of distinct logical edges currently stored. */
  def numEdges: Long = edgeCount

  /** Arrivals queued for expiry. */
  private[stream] def queuedArrivals: Int = arrivals.size

  /** Insert edge or refresh its timestamp; returns true if the edge is new. */
  def add(src: Long, dst: Long, label: String, ts: Long): Boolean = {
    val om = out.getOrElseUpdate(src, mutable.HashMap.empty)
    val key = (dst, label)
    val isNew = !om.contains(key)
    if (isNew || ts > om(key)) {
      om(key) = ts
      in.getOrElseUpdate(dst, mutable.HashMap.empty)((src, label)) = ts
      arrivals.enqueue(src, dst, label, ts)
    }
    if (isNew) edgeCount += 1
    isNew
  }

  /** Remove a logical edge (explicit deletion); returns true if it existed. */
  def remove(src: Long, dst: Long, label: String): Boolean = {
    val existed = out.get(src).exists(_.remove((dst, label)).isDefined)
    if (existed) {
      in.get(dst).foreach(_.remove((src, label)))
      edgeCount -= 1
    }
    existed
  }

  /** Timestamp of a logical edge, if present. */
  def timestamp(src: Long, dst: Long, label: String): Option[Long] =
    out.get(src).flatMap(_.get((dst, label)))

  /** Calls `f(dst, label, ts)` for each outgoing edge of `v` whose timestamp
    * is strictly greater than `minTs`, in the adjacency map's iteration order.
    */
  def foreachOut(v: Long, minTs: Long)(f: EdgeFn): Unit = {
    val m = out.getOrNull(v)
    if (m != null) m.foreachEntry { (k, ts) => if (ts > minTs) f(k._1, k._2, ts) }
  }

  /** Calls `f(src, label, ts)` for each incoming edge of `v` whose timestamp
    * is strictly greater than `minTs`, in the adjacency map's iteration order.
    */
  def foreachIn(v: Long, minTs: Long)(f: EdgeFn): Unit = {
    val m = in.getOrNull(v)
    if (m != null) m.foreachEntry { (k, ts) => if (ts > minTs) f(k._1, k._2, ts) }
  }

  /** All currently stored edges (any timestamp). */
  def edges: Iterator[Edge] =
    out.iterator.flatMap { case (u, m) =>
      m.iterator.map { case ((v, l), ts) => Edge(u, v, l, ts) }
    }

  /** Drop every edge with `ts ≤ minTs` (window expiry); returns #removed.
    * Visits only the queued arrivals with `ts ≤ minTs`.
    */
  def pruneExpired(minTs: Long): Long = {
    var removed = 0L
    while (arrivals.nonEmpty && arrivals.headTs <= minTs) {
      val src = arrivals.headSrc
      val dst = arrivals.headDst
      val label = arrivals.headLabel
      arrivals.dequeue()
      val om = out.getOrNull(src)
      val key = (dst, label)
      if (om != null && om.getOrElse(key, Long.MaxValue) <= minTs) {
        om.remove(key)
        in.get(dst).foreach(_.remove((src, label)))
        removed += 1
      }
    }
    edgeCount -= removed
    removed
  }
}

object SnapshotGraph {
  /** Directed labeled edge with the timestamp of its freshest arrival. */
  final case class Edge(src: Long, dst: Long, label: String, ts: Long)

  /** Visitor of one adjacency entry: the other endpoint, label and timestamp. */
  trait EdgeFn {
    def apply(other: Long, label: String, ts: Long): Unit
  }

  /** Ring buffer of arrivals in non-decreasing timestamp order, one primitive
    * column per field. The engines' clock keeps timestamps non-decreasing, so
    * an arrival is appended; an older one, which only a direct caller can
    * make, is shifted into place.
    */
  private final class ArrivalQueue {
    private var src = new Array[Long](16)
    private var dst = new Array[Long](16)
    private var label = new Array[String](16)
    private var ts = new Array[Long](16)
    private var head = 0
    private var count = 0

    def size: Int = count
    def nonEmpty: Boolean = count > 0
    def headSrc: Long = src(head)
    def headDst: Long = dst(head)
    def headLabel: String = label(head)
    def headTs: Long = ts(head)

    private def at(i: Int): Int = (head + i) & (ts.length - 1)

    def enqueue(s: Long, d: Long, l: String, t: Long): Unit = {
      if (count == ts.length) grow()
      var i = count
      while (i > 0 && ts(at(i - 1)) > t) {
        val from = at(i - 1)
        val to = at(i)
        src(to) = src(from); dst(to) = dst(from); label(to) = label(from); ts(to) = ts(from)
        i -= 1
      }
      val j = at(i)
      src(j) = s; dst(j) = d; label(j) = l; ts(j) = t
      count += 1
    }

    def dequeue(): Unit = {
      label(head) = null
      head = (head + 1) & (ts.length - 1)
      count -= 1
    }

    private def grow(): Unit = {
      val n = ts.length * 2
      val (s2, d2, l2, t2) = (new Array[Long](n), new Array[Long](n), new Array[String](n), new Array[Long](n))
      var i = 0
      while (i < count) {
        val j = at(i)
        s2(i) = src(j); d2(i) = dst(j); l2(i) = label(j); t2(i) = ts(j)
        i += 1
      }
      src = s2; dst = d2; label = l2; ts = t2
      head = 0
    }
  }
}
