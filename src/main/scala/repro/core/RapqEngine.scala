package repro.core

import scala.collection.mutable

import repro.automaton.Dfa
import repro.stream.WindowSpec

/** Incremental RPQ evaluation under **arbitrary path semantics** on a
  * time-based sliding window (paper §3: Algorithms RAPQ, Insert, ExpiryRAPQ
  * and §3.2: Delete). The Δ tree index, the window clock and Delete live in
  * [[DeltaForest]]; each tree holds at most one node per `(v, s)` pair.
  *
  * Faithfulness notes (see DESIGN.md §3):
  *   - `insert` re-parents a pre-existing node onto a fresher path and
  *     recurses over its outgoing edges, so node timestamps always equal the
  *     best window-path freshness and append-only expiry is a pure filter;
  *   - eager evaluation (results produced per arriving tuple), lazy
  *     expiration (physical removal every `window.slide` time units).
  */
final class RapqEngine(
    dfa: Dfa,
    window: WindowSpec,
    collectResults: Boolean = true,
) extends DeltaForest(dfa, window, collectResults) {
  import DeltaForest.Node
  import RapqEngine.Tree

  protected type T = Tree

  protected def selfPairs: Boolean = true

  // ------------------------------------------------------------------ insert

  protected def insertEdge(ts: Long, u: Long, v: Long, label: String): Unit = {
    graph.add(u, v, label, ts)
    val pairs = dfa.byLabel.getOrElse(label, Nil)
    if (pairs.isEmpty) return
    val minTs = window.lowerBound(ts)

    // New spanning tree rooted at (u, s0) if this edge leaves the start state.
    if (pairs.exists(_._1 == dfa.start) && !trees.contains(u)) {
      val tree = new Tree(u, dfa.start)
      addNode(tree, key(u, dfa.start), tree.rootNode)
      trees(u) = tree
    }

    // Extend every tree that contains (u, s) for a transition (s, t) on label.
    // snapshot: insertion can add this vertex to more trees mid-iteration
    val snapshot = treesOf(u).toArray
    var i = 0
    while (i < snapshot.length) {
      val tree = snapshot(i)
      pairs.foreach { case (s, t) =>
        val parent = tree.nodes.getOrNull(key(u, s))
        if (parent != null && parent.ts > minTs) {
          insert(tree, parent, v, t, ts, minTs)
        }
      }
      i += 1
    }
  }

  /** Algorithm Insert: connect `(v, t)` under `parent`, recursing
    * (iteratively) over the window's outgoing edges on first insertion and
    * on every freshness improvement.
    */
  private def insert(tree: Tree, parent0: Node, v0: Long, t0: Int, edgeTs0: Long, minTs: Long): Unit = {
    val stack = mutable.Stack.empty[(Node, Long, Int, Long)]
    stack.push((parent0, v0, t0, edgeTs0))
    while (stack.nonEmpty) {
      val (parent, v, t, edgeTs) = stack.pop()
      // parent may have been expired/invalidated since being scheduled
      if (parent.ts > minTs && (tree.nodes.getOrNull(key(parent.v, parent.s)) eq parent)) {
        val newTs = math.min(edgeTs, parent.ts)
        if (newTs > minTs) {
          val existing = tree.nodes.getOrNull(key(v, t))
          val node =
            if (existing == null) {
              val n = new Node(v, t, parent, newTs)
              parent.addChild(n)
              addNode(tree, key(v, t), n)
              if (dfa.isFinal(t)) emit(tree.rootVertex, v)
              n
            } else if (existing.ts < newTs) {
              // Freshness improvement: re-parent onto the fresher path and
              // propagate below (Insert lines 7–10 apply to this case too —
              // eager propagation is what keeps invariant 1 of Lemma 1 true
              // on *every* arrival, not just at expiry boundaries).
              // Cycle-safe: timestamps are non-increasing along any tree
              // path, so an ancestor can never satisfy `existing.ts < newTs`.
              existing.reparent(parent)
              existing.ts = newTs
              existing
            } else null
          if (node != null) {
            graph.outEdges(v, minTs).foreach { e =>
              dfa.delta(t, e.label).foreach { q =>
                val ex = tree.nodes.getOrNull(key(e.dst, q))
                if (ex == null || ex.ts < math.min(node.ts, e.ts))
                  stack.push((node, e.dst, q, e.ts))
              }
            }
          }
        }
      }
    }
  }

  private def addNode(tree: Tree, k: Long, n: Node): Unit = {
    tree.nodes(k) = n
    nodeAdded(tree, n.v)
  }

  // ------------------------------------------------------------------ expiry

  /** Algorithm ExpiryRAPQ's reconnection: try to re-attach each node whose
    * freshest known path left the window via still-valid incoming edges
    * (which re-discovers results through alternative paths).
    */
  protected def reconnect(tree: Tree, expired: Array[Node], minTs: Long,
                          invalidated: mutable.Set[(Long, Long)]): Unit = {
    // Insert's recursion transitively re-adds reachable descendants.
    expired.foreach { n =>
      if (tree.nodes.getOrNull(key(n.v, n.s)) == null) {
        graph.inEdges(n.v, minTs).foreach { e =>
          dfa.byLabel.getOrElse(e.label, Nil).foreach { case (s, t) =>
            if (t == n.s) {
              val parent = tree.nodes.getOrNull(key(e.src, s))
              if (parent != null && parent.ts > minTs)
                insert(tree, parent, n.v, t, e.ts, minTs)
            }
          }
        }
      }
    }
    // nodes that stayed disconnected: report invalidated results
    expired.foreach { n =>
      if (tree.nodes.getOrNull(key(n.v, n.s)) == null && dfa.isFinal(n.s))
        invalidated += ((tree.rootVertex, n.v))
    }
  }

  // ------------------------------------------------------------------ views

  /** Node timestamps of one spanning tree, keyed by `(vertex, state)` —
    * exposed for the paper's worked examples (Figure 2) in tests.
    */
  def treeSnapshot(x: Long): Map[(Long, Int), Long] =
    nodesOf(x).map(n => (n.v, n.s) -> n.ts).toMap

  /** Parent pointers of one spanning tree, for structural assertions. */
  def treeParents(x: Long): Map[(Long, Int), (Long, Int)] =
    nodesOf(x).collect {
      case n if n.parent != null => (n.v, n.s) -> ((n.parent.v, n.parent.s))
    }.toMap
}

object RapqEngine {
  import DeltaForest.Node

  /** One spanning tree `T_x` with a hash node index (paper §5.1.1). */
  private[core] final class Tree(x: Long, start: Int) extends DeltaForest.Tree(x, start) {
    val nodes = mutable.LongMap.empty[Node]

    def allNodes: Iterator[Node] = nodes.valuesIterator
    def nodesFor(k: Long): Option[Node] = nodes.get(k)
    def remove(k: Long, n: Node): Unit = nodes.remove(k)
  }
}
