package repro.stream

import scala.collection.mutable

/** Mutable window-content graph `G_{W,τ}` (paper Definition 5).
  *
  * Keeps both out- and in-adjacency: the RAPQ/RSPQ insert paths scan outgoing
  * edges of the freshly reached vertex, while the expiry/reconnection paths
  * scan incoming edges of an expired node's vertex.
  *
  * A logical edge is `(src, dst, label)`; re-arrival of the same logical edge
  * refreshes its timestamp (we keep the max — the freshest copy defines
  * validity in the window). Explicit deletion removes the edge outright.
  */
final class SnapshotGraph {
  import SnapshotGraph.Edge

  private val out = mutable.LongMap.empty[mutable.Map[(Long, String), Long]]
  private val in  = mutable.LongMap.empty[mutable.Map[(Long, String), Long]]
  private var edgeCount = 0L

  /** Number of distinct logical edges currently stored. */
  def numEdges: Long = edgeCount

  /** Insert edge or refresh its timestamp; returns true if the edge is new. */
  def add(src: Long, dst: Long, label: String, ts: Long): Boolean = {
    val om = out.getOrElseUpdate(src, mutable.Map.empty)
    val key = (dst, label)
    val isNew = !om.contains(key)
    val newTs = if (isNew) ts else math.max(om(key), ts)
    om(key) = newTs
    in.getOrElseUpdate(dst, mutable.Map.empty)((src, label)) = newTs
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

  /** Outgoing edges of `v` whose timestamp is strictly greater than `minTs`. */
  def outEdges(v: Long, minTs: Long): Iterator[Edge] =
    out.get(v).iterator.flatMap(_.iterator).collect {
      case ((dst, label), ts) if ts > minTs => Edge(v, dst, label, ts)
    }

  /** Incoming edges of `v` whose timestamp is strictly greater than `minTs`. */
  def inEdges(v: Long, minTs: Long): Iterator[Edge] =
    in.get(v).iterator.flatMap(_.iterator).collect {
      case ((src, label), ts) if ts > minTs => Edge(src, v, label, ts)
    }

  /** All currently stored edges (any timestamp). */
  def edges: Iterator[Edge] =
    out.iterator.flatMap { case (u, m) =>
      m.iterator.map { case ((v, l), ts) => Edge(u, v, l, ts) }
    }

  /** Drop every edge with `ts ≤ minTs` (window expiry); returns #removed. */
  def pruneExpired(minTs: Long): Long = {
    var removed = 0L
    out.foreach { case (u, m) =>
      val dead = m.iterator.collect { case (k, ts) if ts <= minTs => k }.toList
      dead.foreach { case (dst, label) =>
        m.remove((dst, label))
        in.get(dst).foreach(_.remove((u, label)))
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
}
