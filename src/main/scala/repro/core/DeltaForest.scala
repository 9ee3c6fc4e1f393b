package repro.core

import scala.collection.mutable

import repro.automaton.Dfa
import repro.stream.{Op, Sgt, SlideClock, SnapshotGraph, WindowSpec}

/** The Δ tree index (Definition 12) shared by [[RapqEngine]] and
  * [[RspqEngine]]: one spanning tree per root vertex `x`, whose node
  * `(v, s)` witnesses a window-valid path `p : x → v` with
  * `δ*(s0, φ(p)) = s` and carries `ts = p.ts`, the path's minimum edge
  * timestamp. It owns the window graph, the lazy-expiration clock (§2), the
  * pair→nodes index, Algorithm Delete (§3.2) and the expiry loop.
  *
  * The pair→nodes index is the one node store: each pair `(v, s)` lists its
  * nodes in every tree through intrusive `nextAtPair` links, a tree's nodes
  * adjacent and newest first, from its head in `pairNodes`; each tree keys
  * its newest node of the pair in its [[NodeTable]]. Arrivals seed from the
  * lists, Delete finds the deleted edge's tree edges in them, and [[reopen]]
  * walks one tree's.
  *
  * Slide expiry visits only what is due: every non-root node is filed in a
  * [[DueIndex]] under its timestamp's slide-sized bucket, and a slide pops
  * the buckets the window has left. A popped node expires if its `ts` has
  * left the window (a RAPQ slide unlinks it, an RSPQ slide reconnects it), is
  * dropped if it already left its tree, and is filed again under its current
  * `ts` otherwise (a RAPQ node refreshed since, or a node of the boundary
  * bucket). Delete scans the trees it affects, depth first from each root,
  * also dropping nodes that expired lazily.
  *
  * It also drives the traversal that Insert (§3.1) and Extend (§4.1) share:
  * an arriving edge `u -l-> v` seeds the frames of every tree at once from
  * the lists of its pairs `(u, s)`, and one traversal drains them; expiry
  * re-seeds a lost pair of one tree from valid in-edges ([[reopen]]). Each
  * engine's `drain` applies its own rule to the frames, kept on one
  * [[FrameStack]] that every traversal reuses, and reads a frame's tree from
  * its parent node. A frame reads and writes only that tree, so interleaving
  * the trees' seeds in one traversal leaves each tree's work unchanged.
  * The graph interns the DFA's labels first, so an edge's label id indexes
  * the DFA's transition table ([[Dfa.step]]) directly.
  *
  * Pair keys of `pairNodes` (and RSPQ's markings) are `v · k + s` for `k`
  * DFA states; `processTuple` and `deleteEdge` reject vertex ids for which
  * that overflows.
  */
abstract class DeltaForest(val dfa: Dfa, val window: WindowSpec, collectResults: Boolean) {
  import DeltaForest._

  /** The engine's spanning-tree type. */
  protected type T <: Tree

  val graph = new SnapshotGraph
  dfa.labels.foreach(graph.labelId) // graph label id l is dfa.labels(l) for l < dfa.m

  /** Cumulative distinct results (populated when `collectResults`). */
  val results = mutable.LinkedHashSet.empty[(Long, Long)]

  /** Raw result emissions, including re-discoveries after reconnection. */
  var emissionCount: Long = 0L

  /** Total time spent in expiry passes (slides and deletions), for Fig 6(b). */
  var expiryNanos: Long = 0L
  var expiryRuns: Long  = 0L

  protected[core] final val trees = mutable.LongMap.empty[T]
  private[core] val due = new DueIndex(window.slide)
  // Cumulative slide pop counts: every popped node is expired, filed again,
  // or dropped because it already left its tree.
  private[core] var duePopped, dueExpired, dueRefiled = 0L
  // Pair index: key(v, s) -> the head of the pair's list; the others follow through `nextAtPair`.
  private[core] val pairNodes = mutable.LongMap.empty[Node]
  private val maybeRootOnly = mutable.ArrayBuffer.empty[Tree] // trees created or shrunk to root since last slide
  private val clock = new SlideClock(window.slide)
  private var nodeCount = 0L

  private val k = dfa.k
  // Widest vertex-id range in which `key` cannot overflow, hence stays unique.
  private val minVertex = Long.MinValue / k
  private val maxVertex = (Long.MaxValue - (k - 1)) / k

  protected final def key(v: Long, s: Int): Long = v * k + s

  def numTrees: Int = trees.size
  /** Nodes in all trees, roots included. */
  def numNodes: Long = nodeCount

  /** Process one streaming graph tuple (insert or explicit delete). */
  final def processTuple(t: Sgt): Unit = t.op match {
    case Op.Insert => admit(t.ts, t.src, t.dst); insertEdge(t.ts, t.src, t.dst, t.label)
    case Op.Delete => deleteEdge(t.ts, t.src, t.dst, t.label)
  }

  /** Accept a tuple at `ts` on `u → v`, running the slide's expiry if due, or
    * throw an `IllegalArgumentException` for an id out of range or a late `ts`.
    */
  private def admit(ts: Long, u: Long, v: Long): Unit = {
    requireVertices(u, v)
    if (clock.tick(ts)) forceExpiry(ts)
  }

  /** Run an expiry pass as of time `ts`: on every slide, and from tests and
    * at end-of-stream so the index reflects exactly the final window. Later
    * tuples must not be below `ts`, which the window has already moved past.
    */
  final def forceExpiry(ts: Long): Unit = {
    clock.raise(ts)
    val minTs = window.lowerBound(ts)
    graph.pruneExpired(minTs)
    val t0 = System.nanoTime()
    // expired nodes to reconnect, grouped by tree, trees and nodes in pop order
    val expired = if (slideReconnects) mutable.LinkedHashMap.empty[T, mutable.ArrayBuffer[Node]] else null
    due.popThrough(Math.floorDiv(minTs, window.slide)) { n =>
      duePopped += 1
      if (n.tree != null) {
        if (n.ts <= minTs) {
          dueExpired += 1
          if (expired == null) unlink(n)
          else expired.getOrElseUpdate(n.tree.asInstanceOf[T], mutable.ArrayBuffer.empty) += n
        } else {
          dueRefiled += 1
          due.file(n)
        }
      }
    }
    if (expired != null) {
      // A reconnection that throws (RSPQ's step budget) leaves the later trees
      // unexpired, as a full scan would; filed again, the next slide pops them.
      val pending = expired.iterator
      try pending.foreach { case (tree, ns) => ns.foreach(unlink); reconnect(tree, ns.toArray, minTs) }
      finally pending.foreach { case (_, ns) => ns.foreach(due.file) }
    }
    maybeRootOnly.foreach(tree => if (tree.size <= 1 && tree.rootNode.tree != null) dropTree(tree))
    maybeRootOnly.clear()
    expiryNanos += System.nanoTime() - t0
    expiryRuns += 1
  }

  /** A new spanning tree `T_x` holding only its root. */
  protected def newTree(x: Long): T

  /** Pop the frame stack to empty, applying the engine's extension rule to
    * each frame in the tree of its parent node.
    */
  protected def drain(minTs: Long): Unit

  /** Called once per arriving edge, before its traversals. */
  protected def arrival(): Unit = ()

  /** The engine's half of expiry on `tree`, just pruned of `expired`, each
    * with the `ts` it had there: reconnect what valid edges still reach, and
    * return the expired nodes whose results may now be invalidated.
    */
  protected def reconnect(tree: T, expired: Array[Node], minTs: Long): Array[Node]

  /** Whether a slide reconnects what it expires, or only unlinks it. */
  protected def slideReconnects: Boolean

  /** Whether a pair `(x, x)` counts as a result. */
  protected def selfPairs: Boolean

  protected final def emit(x: Long, v: Long): Unit = {
    emissionCount += 1
    if (collectResults) results += ((x, v))
  }

  // ------------------------------------------------------- index bookkeeping

  /** Store node `n` as `tree`'s newest of its pair: link it in front of the
    * tree's newest node of the pair, or at the head of the pair's list if the
    * tree has none, and, unless it is the root, file it for expiry.
    */
  protected final def addNode(tree: T, n: Node): Unit = {
    val kn = key(n.v, n.s)
    val newest = tree.nodes.put(n)
    val next = if (newest != null) newest else pairNodes.getOrNull(kn)
    val prev = if (next != null) next.prevAtPair else null
    n.nextAtPair = next
    n.prevAtPair = prev
    if (next != null) next.prevAtPair = n
    if (prev != null) prev.nextAtPair = n else pairNodes(kn) = n
    tree.size += 1
    nodeCount += 1
    n.tree = tree
    if (n ne tree.rootNode) due.file(n)
  }

  /** Take node `n` out of its tree, and out of its pair's list in O(1). */
  private def unlink(n: Node): Unit = {
    val tree = n.tree
    val kn = key(n.v, n.s)
    val next = n.nextAtPair
    tree.nodes.remove(n, if (next != null && (next.tree eq tree)) next else null)
    tree.size -= 1
    nodeCount -= 1
    if (tree.size == 1) maybeRootOnly += tree
    n.tree = null
    if (n.parent != null) n.parent.removeChild(n)
    n.parent = null
    if (next != null) next.prevAtPair = n.prevAtPair
    if (n.prevAtPair != null) n.prevAtPair.nextAtPair = next
    else if (next != null) pairNodes(kn) = next
    else pairNodes.subtractOne(kn)
    n.prevAtPair = null
    n.nextAtPair = null
  }

  // ----------------------------------------------------- extension traversal

  /** Frames waiting in the current traversal. */
  protected final val frames = new FrameStack

  /** Add edge `u -l-> v` to the window graph and extend Δ: every tree holding
    * a valid `(u, s)` with `δ(s, l) = t` tries to add `(v, t)` under it. One
    * traversal serves all trees; each tree sees its seeds in pair order, then
    * newest first.
    */
  private def insertEdge(ts: Long, u: Long, v: Long, label: String): Unit = {
    arrival()
    val l = graph.labelId(label)
    graph.add(u, v, l, ts)
    val pairs = dfa.pairs(l) // s, t, s', t', …
    if (pairs.isEmpty) return
    val minTs = window.lowerBound(ts)

    // New spanning tree rooted at (u, s0) if this edge leaves the start state.
    if (dfa.step(dfa.start, l) >= 0 && !trees.contains(u)) {
      val tree = newTree(u)
      addNode(tree, tree.rootNode)
      trees(u) = tree
      maybeRootOnly += tree
    }

    traverse(minTs) {
      var i = 0
      while (i < pairs.length) {
        var n = pairNodes.getOrNull(key(u, pairs(i)))
        while (n != null) {
          if (n.ts > minTs) frames.push(n, v, pairs(i + 1), ts)
          n = n.nextAtPair
        }
        i += 2
      }
    }
  }

  /** One traversal: clear the stack, which a traversal cut short by an
    * exception may have left non-empty, push the frames of `seed`, and drain
    * them. The seed frames pop in the order they were pushed, so each one's
    * depth-first walk ends before the next one starts. An arrival runs one
    * traversal for all trees; a reconnection runs them within one tree.
    */
  protected final def traverse(minTs: Long)(seed: => Unit): Unit = {
    frames.clear()
    seed
    frames.reverse()
    drain(minTs)
  }

  /** Push a frame to `(v, t)` from every valid node with a window edge into
    * `v` that the DFA takes to `t`.
    */
  protected final def reopen(tree: T, v: Long, t: Int, minTs: Long): Unit = {
    val in = graph.inOf(v)
    var i = 0
    while (i < in.size) {
      val ets = in.ts(i)
      if (ets > minTs) {
        val src = in.other(i)
        val l = in.label(i)
        var q = 0
        while (q < k) {
          if (dfa.step(q, l) == t) {
            var m = tree.nodes.get(src, q)
            while (m != null && (m.tree eq tree)) {
              if (m.ts > minTs) frames.push(m, v, t, ets)
              m = m.nextAtPair
            }
          }
          q += 1
        }
      }
      i += 1
    }
  }

  // ------------------------------------------------------------------ expiry

  /** Drop `tree` from Δ once it holds only its root. */
  private def dropTree(tree: Tree): Unit = {
    unlink(tree.rootNode)
    trees.subtractOne(tree.rootVertex)
  }

  // ------------------------------------------------------------------ delete

  /** Algorithm Delete (§3.2): negative tuple `(τ, (u,v), l, −)`. Tree edges
    * matching the deleted edge disconnect their subtree: a node `(v, t)`
    * under `(u, s)` with `δ(s, l) = t` and a `ts` no later than the edge's,
    * unless a stored edge `u -l'-> v` that survives the delete, with
    * `δ(s, l') = t` and a `ts` no earlier than the node's, still supports it
    * (the node may have come in by that parallel edge). Each affected tree
    * unlinks those subtrees and every node that left the window, and the
    * engine reconnects what valid edges still reach, reading each unlinked
    * node's `ts`. Returns the invalidated `(x, v)` pairs. Admitted like
    * [[processTuple]]'s tuples: it may run the slide's expiry first.
    */
  final def deleteEdge(ts: Long, u: Long, v: Long, label: String): Set[(Long, Long)] = {
    admit(ts, u, v)
    val edgeTs = graph.timestampOr(u, v, label, Long.MinValue)
    if (!graph.remove(u, v, label)) return Set.empty
    val pairs = dfa.pairs(graph.labelId(label)) // interned when the edge arrived
    if (pairs.isEmpty) return Set.empty

    // the deleted edge's tree edges (u, s) -> (v, t), grouped by tree in the
    // order of the pair lists; unlinking below changes those lists
    val hits = mutable.LinkedHashMap.empty[T, mutable.ArrayBuffer[Node]]
    var i = 0
    while (i < pairs.length) {
      val s = pairs(i)
      val t = pairs(i + 1)
      val kept = newestEdgeTs(u, v, s, t)
      var n = pairNodes.getOrNull(key(v, t))
      while (n != null) {
        if (n.parent != null && n.parent.v == u && n.parent.s == s && n.ts <= edgeTs && n.ts > kept)
          hits.getOrElseUpdate(n.tree.asInstanceOf[T], mutable.ArrayBuffer.empty) += n
        n = n.nextAtPair
      }
      i += 2
    }
    if (hits.isEmpty) return Set.empty
    val t0 = System.nanoTime()
    val minTs = window.lowerBound(ts)
    val invalidated = mutable.Set.empty[(Long, Long)]
    hits.foreach { case (tree, hs) =>
      val lost = mutable.ArrayBuffer.empty[Node]
      hs.foreach(h => if (h.tree != null) unlinkSubtree(h, lost)) // else under an earlier hit
      val stale = mutable.ArrayBuffer.empty[Node]
      tree.foreachNode(n => if ((n ne tree.rootNode) && n.ts <= minTs) stale += n)
      stale.foreach(unlink)
      // a result is invalidated when its final pair stayed disconnected
      reconnect(tree, (lost ++= stale).toArray, minTs).foreach { n =>
        if (dfa.isFinal(n.s) && (selfPairs || n.v != tree.rootVertex) &&
            tree.nodes.get(n.v, n.s) == null)
          invalidated += ((tree.rootVertex, n.v))
      }
      if (tree.size <= 1) dropTree(tree)
    }
    expiryNanos += System.nanoTime() - t0
    expiryRuns += 1
    invalidated.toSet
  }

  /** The newest timestamp of a stored edge `u -l-> v` with `δ(s, l) = t`,
    * or `Long.MinValue` if there is none.
    */
  private def newestEdgeTs(u: Long, v: Long, s: Int, t: Int): Long = {
    val out = graph.outOf(u)
    var newest = Long.MinValue
    var i = 0
    while (i < out.size) {
      if (out.other(i) == v && dfa.step(s, out.label(i)) == t) newest = math.max(newest, out.ts(i))
      i += 1
    }
    newest
  }

  // Delete's work stack of subtree nodes, reused by every `unlinkSubtree`
  private val subtree = mutable.ArrayBuffer.empty[Node]

  /** Unlink `root` and every node below it, appending them to `out`. */
  private def unlinkSubtree(root: Node, out: mutable.ArrayBuffer[Node]): Unit = {
    subtree += root
    while (subtree.nonEmpty) {
      val n = subtree.remove(subtree.length - 1)
      var c = n.firstChild
      while (c != null) { subtree += c; c = c.nextSib }
      unlink(n)
      out += n
    }
  }

  private def requireVertices(u: Long, v: Long): Unit =
    if (u < minVertex || u > maxVertex || v < minVertex || v > maxVertex)
      throw new IllegalArgumentException(
        s"vertex id out of range [$minVertex, $maxVertex] for a $k-state query: edge $u -> $v")

  // ------------------------------------------------------------------ views

  /** Pairs `(x, v)` with a currently window-valid accepting node — the
    * explicit-window result set `Q_R(G_{W,τ})`. Exact after every tuple for
    * RAPQ, and for RSPQ right after an expiry pass (see DESIGN.md §3).
    */
  def currentResults(ts: Long): Set[(Long, Long)] = {
    val minTs = window.lowerBound(ts)
    val out = mutable.Set.empty[(Long, Long)]
    trees.valuesIterator.foreach { tree =>
      tree.foreachNode { n =>
        if ((n ne tree.rootNode) && n.ts > minTs && dfa.isFinal(n.s) &&
            (selfPairs || n.v != tree.rootVertex))
          out += ((tree.rootVertex, n.v))
      }
    }
    out.toSet
  }

  /** Nodes of tree `T_x` (none if no tree is rooted at `x`), for test views. */
  protected final def nodesOf(x: Long): Seq[Node] = {
    val out = mutable.ArrayBuffer.empty[Node]
    trees.get(x).foreach(_.foreachNode(out += _))
    out.toSeq
  }
}

object DeltaForest {

  /** Spanning-tree node `(v, s)` with parent pointer, path timestamp and an
    * intrusive doubly linked child list (`firstChild`, then `nextSib`; needed
    * by Delete's subtree unlinking), so linking and unlinking a child are O(1).
    * `tree` is the tree holding it, `null` once it has left; `nextDue` links
    * it into its [[DueIndex]] bucket; `nextAtPair` and `prevAtPair` link it
    * into the forest's list of the nodes of its pair, newest first.
    */
  private[core] final class Node(val v: Long, val s: Int, var parent: Node, var ts: Long) {
    private[core] var tree: Tree = null
    private[core] var nextDue: Node = null
    private[core] var nextAtPair: Node = null
    private[core] var prevAtPair: Node = null
    private[core] var firstChild: Node = null
    private[core] var nextSib: Node = null
    private var prevSib: Node = null

    def addChild(c: Node): Unit = {
      c.prevSib = null
      c.nextSib = firstChild
      if (firstChild != null) firstChild.prevSib = c
      firstChild = c
    }

    /** Unlink `c`, which must be a child of this node. */
    def removeChild(c: Node): Unit = {
      if (c.prevSib != null) c.prevSib.nextSib = c.nextSib else firstChild = c.nextSib
      if (c.nextSib != null) c.nextSib.prevSib = c.prevSib
      c.prevSib = null
      c.nextSib = null
    }

    /** The child list, newest first, for structural checks. */
    private[core] def children: List[Node] =
      Iterator.iterate(firstChild)(_.nextSib).takeWhile(_ != null).toList

    def reparent(newParent: Node): Unit = {
      if (parent != null) parent.removeChild(this)
      parent = newParent
      newParent.addChild(this)
    }
  }

  /** One spanning tree `T_x` (a RAPQ tree as is). `nodes` keys its newest
    * node of each pair; a RAPQ tree has at most one, and an RSPQ tree's
    * others follow it in the pair's list. Newest first fixes the order of
    * Extend's frames and expiry's reconnection, so a stream always yields the
    * same markings; oldest first took a third more steps on SO-like data.
    */
  private[core] class Tree(val rootVertex: Long, start: Int) {
    val rootNode = new Node(rootVertex, start, null, Long.MaxValue)
    private[core] var size = 0
    private[core] val nodes = new NodeTable

    /** Apply `f` to every node, depth first from the root through the child
      * lists, newest child first. `f` must not change the tree.
      */
    final def foreachNode(f: Node => Unit): Unit = {
      var n = if (rootNode.tree eq this) rootNode else null // dropped: holds nothing
      while (n != null) {
        f(n)
        if (n.firstChild != null) n = n.firstChild
        else {
          while ((n ne rootNode) && n.nextSib == null) n = n.parent
          n = if (n eq rootNode) null else n.nextSib
        }
      }
    }
  }
}
