package repro.stream

import scala.collection.mutable

/** Mutable window-content graph `G_{W,τ}` (paper Definition 5).
  *
  * Keeps both out- and in-adjacency: the RAPQ/RSPQ insert paths scan outgoing
  * edges of the freshly reached vertex, while the expiry/reconnection paths
  * scan incoming edges of an expired node's vertex. Each vertex has one
  * out-record and one in-record ([[outOf]], [[inOf]]): parallel primitive
  * arrays of the other endpoint, the label id and the timestamp, in
  * first-arrival order, which the engines walk with index loops. A vertex
  * whose record empties is dropped, so the graph is bounded by the window,
  * not by the stream.
  *
  * Labels are interned to `Int` ids in first-seen order ([[labelId]]). A
  * logical edge is `(src, dst, label)`; re-arrival of the same logical edge
  * refreshes its timestamp in place (we keep the max — the freshest copy
  * defines validity in the window). Explicit deletion removes the edge
  * outright, closing the gap so the order of the rest is kept. Add, refresh,
  * remove and prune find an edge by scanning one vertex's record, so each
  * costs O(degree).
  *
  * Expiry touches only what is due: every arrival that sets an edge's
  * timestamp is queued in timestamp order, and [[pruneExpired]] pops the
  * queue's due head. A popped arrival removes its edge only if the edge's
  * stored timestamp is due too; one that a re-arrival has overtaken, or whose
  * edge was deleted, is skipped.
  */
final class SnapshotGraph {
  import SnapshotGraph.{Adjacency, ArrivalQueue, Edge}

  private val out = mutable.LongMap.empty[Adjacency]
  private val in  = mutable.LongMap.empty[Adjacency]
  private val labelIds = mutable.HashMap.empty[String, Int]
  private val labelNames = mutable.ArrayBuffer.empty[String]
  private var edgeCount = 0L
  private val arrivals = new ArrivalQueue

  /** Number of distinct logical edges currently stored. */
  def numEdges: Long = edgeCount

  /** Arrivals queued for expiry. */
  private[stream] def queuedArrivals: Int = arrivals.size

  /** Out- and in-records currently kept, at most two per stored edge. */
  private[stream] def vertexRecords: Int = out.size + in.size

  /** Id of `label`, interning it on first sight: ids are `0, 1, …` in the
    * order labels are first seen.
    */
  def labelId(label: String): Int =
    labelIds.getOrElseUpdate(label, { labelNames += label; labelNames.length - 1 })

  /** The label interned as `id`. */
  def labelName(id: Int): String = labelNames(id)

  /** Outgoing edges of `v`: `other` is the destination (empty if none). */
  def outOf(v: Long): Adjacency = orEmpty(out.getOrNull(v))

  /** Incoming edges of `v`: `other` is the source (empty if none). */
  def inOf(v: Long): Adjacency = orEmpty(in.getOrNull(v))

  private def orEmpty(a: Adjacency): Adjacency = if (a == null) Adjacency.Empty else a

  /** Insert edge or refresh its timestamp; returns true if the edge is new. */
  def add(src: Long, dst: Long, label: String, ts: Long): Boolean = add(src, dst, labelId(label), ts)

  /** [[add]] for a label already interned as id `l`. */
  def add(src: Long, dst: Long, l: Int, ts: Long): Boolean = {
    val om = out.getOrElseUpdate(src, new Adjacency)
    val i = om.indexOf(dst, l)
    if (i < 0) {
      om.append(dst, l, ts)
      in.getOrElseUpdate(dst, new Adjacency).append(src, l, ts)
      arrivals.enqueue(src, dst, l, ts)
      edgeCount += 1
      true
    } else {
      if (ts > om.ts(i)) {
        om.setTs(i, ts)
        val im = in(dst)
        im.setTs(im.indexOf(src, l), ts)
        arrivals.enqueue(src, dst, l, ts)
      }
      false
    }
  }

  /** Remove a logical edge (explicit deletion); returns true if it existed. */
  def remove(src: Long, dst: Long, label: String): Boolean = {
    val l = labelIds.getOrElse(label, -1) // -1, never stored, finds nothing
    val om = outOf(src)
    val i = om.indexOf(dst, l)
    if (i >= 0) unlink(src, om, i, dst, l)
    i >= 0
  }

  /** Timestamp of a logical edge, if present. */
  def timestamp(src: Long, dst: Long, label: String): Option[Long] = {
    val om = outOf(src)
    val i = om.indexOf(dst, labelIds.getOrElse(label, -1))
    if (i < 0) None else Some(om.ts(i))
  }

  /** Timestamp of a logical edge, or `absent` if it is not stored. */
  def timestampOr(src: Long, dst: Long, label: String, absent: Long): Long = {
    val om = outOf(src)
    val i = om.indexOf(dst, labelIds.getOrElse(label, -1))
    if (i < 0) absent else om.ts(i)
  }

  /** All currently stored edges (any timestamp). */
  def edges: Iterator[Edge] =
    out.iterator.flatMap { case (u, m) =>
      (0 until m.size).iterator.map(i => Edge(u, m.other(i), labelNames(m.label(i)), m.ts(i)))
    }

  /** Drop every edge with `ts ≤ minTs` (window expiry); returns #removed.
    * Visits only the queued arrivals with `ts ≤ minTs`.
    */
  def pruneExpired(minTs: Long): Long = {
    var removed = 0L
    while (arrivals.nonEmpty && arrivals.headTs <= minTs) {
      val src = arrivals.headSrc
      val dst = arrivals.headDst
      val l = arrivals.headLabel
      arrivals.dequeue()
      val om = outOf(src)
      val i = om.indexOf(dst, l)
      if (i >= 0 && om.ts(i) <= minTs) {
        unlink(src, om, i, dst, l)
        removed += 1
      }
    }
    removed
  }

  /** Remove edge `src -l-> dst`, stored at `i` in `src`'s out-record `om`,
    * from both records, dropping a record it empties.
    */
  private def unlink(src: Long, om: Adjacency, i: Int, dst: Long, l: Int): Unit = {
    om.removeAt(i)
    if (om.size == 0) out.subtractOne(src)
    val im = in(dst)
    im.removeAt(im.indexOf(src, l))
    if (im.size == 0) in.subtractOne(dst)
    edgeCount -= 1
  }
}

object SnapshotGraph {
  /** Directed labeled edge with the timestamp of its freshest arrival. */
  final case class Edge(src: Long, dst: Long, label: String, ts: Long)

  /** One vertex's out- or in-edges: entry `i < size` is the edge to or from
    * `other(i)` with label id `label(i)` and timestamp `ts(i)`, in the order
    * the edges first arrived.
    */
  final class Adjacency private[stream] () {
    private var otherArr = new Array[Long](2)
    private var labelArr = new Array[Int](2)
    private var tsArr = new Array[Long](2)
    private var n = 0

    def size: Int = n
    def other(i: Int): Long = otherArr(i)
    def label(i: Int): Int = labelArr(i)
    def ts(i: Int): Long = tsArr(i)

    /** Index of the edge to or from `o` with label id `l`, or −1. */
    private[stream] def indexOf(o: Long, l: Int): Int = {
      var i = 0
      while (i < n && (otherArr(i) != o || labelArr(i) != l)) i += 1
      if (i < n) i else -1
    }

    private[stream] def setTs(i: Int, t: Long): Unit = tsArr(i) = t

    private[stream] def append(o: Long, l: Int, t: Long): Unit = {
      if (n == tsArr.length) {
        otherArr = java.util.Arrays.copyOf(otherArr, 2 * n)
        labelArr = java.util.Arrays.copyOf(labelArr, 2 * n)
        tsArr = java.util.Arrays.copyOf(tsArr, 2 * n)
      }
      otherArr(n) = o; labelArr(n) = l; tsArr(n) = t
      n += 1
    }

    private[stream] def removeAt(i: Int): Unit = {
      val tail = n - 1 - i
      System.arraycopy(otherArr, i + 1, otherArr, i, tail)
      System.arraycopy(labelArr, i + 1, labelArr, i, tail)
      System.arraycopy(tsArr, i + 1, tsArr, i, tail)
      n -= 1
    }
  }

  object Adjacency {
    /** The record of a vertex without edges; never written. */
    private[stream] val Empty = new Adjacency
  }

  /** Ring buffer of arrivals in non-decreasing timestamp order, one primitive
    * column per field. The engines' clock keeps timestamps non-decreasing, so
    * an arrival is appended; an older one, which only a direct caller can
    * make, is shifted into place.
    */
  private final class ArrivalQueue {
    private var src = new Array[Long](16)
    private var dst = new Array[Long](16)
    private var label = new Array[Int](16)
    private var ts = new Array[Long](16)
    private var head = 0
    private var count = 0

    def size: Int = count
    def nonEmpty: Boolean = count > 0
    def headSrc: Long = src(head)
    def headDst: Long = dst(head)
    def headLabel: Int = label(head)
    def headTs: Long = ts(head)

    private def at(i: Int): Int = (head + i) & (ts.length - 1)

    def enqueue(s: Long, d: Long, l: Int, t: Long): Unit = {
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
      head = (head + 1) & (ts.length - 1)
      count -= 1
    }

    private def grow(): Unit = {
      val n = ts.length * 2
      val (s2, d2, l2, t2) = (new Array[Long](n), new Array[Long](n), new Array[Int](n), new Array[Long](n))
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
