package repro.core

import scala.collection.mutable

import repro.automaton.Dfa
import repro.stream.{Op, Sgt, SlideClock, SnapshotGraph, WindowSpec}

/** The Δ tree index (Definition 12) shared by [[RapqEngine]] and
  * [[RspqEngine]]: one spanning tree per root vertex `x`, whose node
  * `(v, s)` witnesses a window-valid path `p : x → v` with
  * `δ*(s0, φ(p)) = s` and carries `ts = p.ts`, the path's minimum edge
  * timestamp. It owns the window graph, the lazy-expiration clock (§2), the
  * vertex→trees index, Algorithm Delete (§3.2) and the expiry loop.
  *
  * Node keys are `v · k + s` for `k` DFA states; `processTuple` and
  * `deleteEdge` reject vertex ids for which that overflows.
  */
abstract class DeltaForest(val dfa: Dfa, val window: WindowSpec, collectResults: Boolean) {
  import DeltaForest._

  /** The engine's spanning-tree type. */
  protected type T <: Tree

  val graph = new SnapshotGraph

  /** Cumulative distinct results (populated when `collectResults`). */
  val results = mutable.LinkedHashSet.empty[(Long, Long)]

  /** Raw result emissions, including re-discoveries after reconnection. */
  var emissionCount: Long = 0L

  /** Total time spent in expiry passes (slides and deletions), for Fig 6(b). */
  var expiryNanos: Long = 0L
  var expiryRuns: Long  = 0L

  protected final val trees = mutable.LongMap.empty[T]
  // Inverted index: vertex -> trees containing >= 1 node for that vertex.
  private val vertexTrees = mutable.LongMap.empty[mutable.Set[T]]
  private val clock = new SlideClock(window.slide)

  private val k = dfa.k
  // Widest vertex-id range in which `key` cannot overflow, hence stays unique.
  private val minVertex = Long.MinValue / k
  private val maxVertex = (Long.MaxValue - (k - 1)) / k

  protected final def key(v: Long, s: Int): Long = v * k + s

  def numTrees: Int = trees.size
  def numNodes: Long = trees.valuesIterator.map(_.size.toLong).sum

  /** Process one streaming graph tuple (insert or explicit delete). */
  final def processTuple(t: Sgt): Unit = {
    requireVertices(t.src, t.dst)
    if (clock.tick(t.ts)) forceExpiry(t.ts)
    t.op match {
      case Op.Insert => insertEdge(t.ts, t.src, t.dst, t.label)
      case Op.Delete => deleteEdge(t.ts, t.src, t.dst, t.label)
    }
  }

  /** Run an expiry pass as of time `ts`: on every slide, and from tests and
    * at end-of-stream so the index reflects exactly the final window.
    */
  final def forceExpiry(ts: Long): Unit = {
    graph.pruneExpired(window.lowerBound(ts))
    expireTrees(trees.valuesIterator.to(mutable.ArrayBuffer), ts)
  }

  /** Add edge `u -l-> v` to the window graph and extend Δ. */
  protected def insertEdge(ts: Long, u: Long, v: Long, label: String): Unit

  /** The engine's half of expiry on `tree`, just pruned of `expired`: reconnect
    * what valid edges still reach; add results left disconnected to `invalidated`.
    */
  protected def reconnect(tree: T, expired: Array[Node], minTs: Long,
                          invalidated: mutable.Set[(Long, Long)]): Unit

  /** Whether a pair `(x, x)` counts as a result. */
  protected def selfPairs: Boolean

  protected final def emit(x: Long, v: Long): Unit = {
    emissionCount += 1
    if (collectResults) results += ((x, v))
  }

  // ------------------------------------------------------- index bookkeeping

  /** Trees holding at least one node for vertex `v`. */
  protected final def treesOf(v: Long): collection.Set[T] = vertexTrees.getOrElse(v, Set.empty[T])

  /** Count a node for vertex `v` that was just stored in `tree`. */
  protected final def nodeAdded(tree: T, v: Long): Unit = {
    tree.size += 1
    val c = tree.vertexNodeCount.getOrElse(v, 0)
    tree.vertexNodeCount(v) = c + 1
    if (c == 0) vertexTrees.getOrElseUpdate(v, mutable.Set.empty) += tree
  }

  private def nodeRemoved(tree: T, v: Long): Unit = {
    tree.size -= 1
    val c = tree.vertexNodeCount.getOrElse(v, 1) - 1
    if (c == 0) {
      tree.vertexNodeCount.remove(v)
      vertexTrees.get(v).foreach { set =>
        set -= tree
        if (set.isEmpty) vertexTrees.remove(v)
      }
    } else tree.vertexNodeCount(v) = c
  }

  // ------------------------------------------------------------------ expiry

  /** Expire the given trees (all of Δ on a slide, those that lost a tree edge
    * on a deletion); returns the invalidated `(x, v)` pairs.
    */
  private def expireTrees(affected: collection.Seq[T], ts: Long): Set[(Long, Long)] = {
    val t0 = System.nanoTime()
    val minTs = window.lowerBound(ts)
    val invalidated = mutable.Set.empty[(Long, Long)]
    affected.foreach { tree =>
      val expired = tree.allNodes.filter(n => (n ne tree.rootNode) && n.ts <= minTs).toArray
      if (expired.nonEmpty) {
        expired.foreach { n =>
          tree.remove(key(n.v, n.s), n)
          nodeRemoved(tree, n.v)
          if (n.parent != null) n.parent.removeChild(n)
          n.parent = null
        }
        reconnect(tree, expired, minTs, invalidated)
      }
      if (tree.size <= 1) {
        nodeRemoved(tree, tree.rootVertex)
        trees.remove(tree.rootVertex)
      }
    }
    expiryNanos += System.nanoTime() - t0
    expiryRuns += 1
    invalidated.toSet
  }

  // ------------------------------------------------------------------ delete

  /** Algorithm Delete (§3.2): negative tuple `(τ, (u,v), l, −)`. Tree edges
    * matching the deleted edge disconnect their subtree; affected nodes are
    * marked expired (`ts = −∞`) and the expiry machinery reconnects or
    * permanently removes them. Returns the invalidated `(x, v)` pairs.
    */
  def deleteEdge(ts: Long, u: Long, v: Long, label: String): Set[(Long, Long)] = {
    requireVertices(u, v)
    val existed = graph.remove(u, v, label)
    if (!existed) return Set.empty
    val pairs = dfa.byLabel.getOrElse(label, Nil)
    if (pairs.isEmpty) return Set.empty

    val affected = mutable.ArrayBuffer.empty[T]
    treesOf(v).foreach { tree =>
      pairs.foreach { case (s, t) =>
        tree.nodesFor(key(v, t)).iterator.foreach { node =>
          if (node.parent != null && node.parent.v == u && node.parent.s == s) {
            markSubtree(node)
            if (!affected.contains(tree)) affected += tree
          }
        }
      }
    }
    if (affected.nonEmpty) expireTrees(affected, ts) else Set.empty
  }

  private def markSubtree(root: Node): Unit = {
    val stack = mutable.Stack(root)
    while (stack.nonEmpty) {
      val n = stack.pop()
      n.ts = Long.MinValue
      n.foreachChild(c => stack.push(c))
    }
  }

  private def requireVertices(u: Long, v: Long): Unit =
    if (u < minVertex || u > maxVertex || v < minVertex || v > maxVertex)
      throw new IllegalArgumentException(
        s"vertex id out of range [$minVertex, $maxVertex] for a $k-state query: edge $u -> $v")

  // ------------------------------------------------------------------ views

  /** Pairs `(x, v)` with a currently window-valid accepting node — the
    * explicit-window result set `Q_R(G_{W,τ})`. Exact immediately after an
    * expiry pass (see DESIGN.md §3); tests call `forceExpiry(τ)` first.
    */
  def currentResults(ts: Long): Set[(Long, Long)] = {
    val minTs = window.lowerBound(ts)
    val out = mutable.Set.empty[(Long, Long)]
    trees.valuesIterator.foreach { tree =>
      tree.allNodes.foreach { n =>
        if ((n ne tree.rootNode) && n.ts > minTs && dfa.isFinal(n.s) &&
            (selfPairs || n.v != tree.rootVertex))
          out += ((tree.rootVertex, n.v))
      }
    }
    out.toSet
  }

  /** Nodes of tree `T_x` (none if no tree is rooted at `x`), for test views. */
  protected final def nodesOf(x: Long): Seq[Node] =
    trees.get(x).iterator.flatMap(_.allNodes).toSeq
}

object DeltaForest {

  /** Spanning-tree node `(v, s)` with parent pointer, path timestamp and an
    * intrusive child list (needed by Delete's subtree marking).
    */
  private[core] final class Node(val v: Long, val s: Int, var parent: Node, var ts: Long) {
    private var children: mutable.HashSet[Node] = null

    def addChild(c: Node): Unit = {
      if (children == null) children = mutable.HashSet.empty
      children += c
    }
    def removeChild(c: Node): Unit = if (children != null) children -= c
    def foreachChild(f: Node => Unit): Unit = if (children != null) children.foreach(f)

    def reparent(newParent: Node): Unit = {
      if (parent != null) parent.removeChild(this)
      parent = newParent
      newParent.addChild(this)
    }
  }

  /** One spanning tree `T_x`; subclasses own the node storage. */
  private[core] abstract class Tree(val rootVertex: Long, start: Int) {
    val rootNode = new Node(rootVertex, start, null, Long.MaxValue)
    private[core] var size = 0
    private[core] val vertexNodeCount = mutable.LongMap.empty[Int]

    def allNodes: Iterator[Node]
    def nodesFor(k: Long): IterableOnce[Node]
    def remove(k: Long, n: Node): Unit
  }
}
