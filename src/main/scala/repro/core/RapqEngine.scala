package repro.core

import repro.automaton.Dfa
import repro.stream.WindowSpec

/** Incremental RPQ evaluation under **arbitrary path semantics** on a
  * time-based sliding window (paper §3: Algorithms RAPQ, Insert, ExpiryRAPQ
  * and §3.2: Delete). The Δ tree index, the window clock, Delete and the
  * extension traversal live in [[DeltaForest]]; this engine adds Insert's
  * rule and Delete's choice of what to reconnect. Its trees are the forest's
  * own [[DeltaForest.Tree]]s, each holding at most one node per `(v, s)`
  * pair.
  *
  * Faithfulness notes (see DESIGN.md §3):
  *   - `drain` re-parents a pre-existing node onto a fresher path and
  *     recurses over its outgoing edges, and Delete re-pulls what it disconnected:
  *     node timestamps are always the best path freshness, so a slide is a
  *     pure filter;
  *   - eager evaluation (results produced per arriving tuple), lazy
  *     expiration (physical removal every `window.slide` time units).
  */
final class RapqEngine(
    dfa: Dfa,
    window: WindowSpec,
    collectResults: Boolean = true,
) extends DeltaForest(dfa, window, collectResults) {
  import DeltaForest.{Node, Tree}

  protected type T = Tree

  protected def selfPairs: Boolean = true
  protected def slideReconnects: Boolean = false

  protected def newTree(x: Long): Tree = new Tree(x, dfa.start)

  // ------------------------------------------------------------------ insert

  /** Algorithm Insert: connect each frame's `(v, t)` under its parent, and
    * push the window's outgoing edges on first insertion and on every
    * freshness improvement.
    */
  protected def drain(minTs: Long): Unit =
    while (frames.nonEmpty) {
      val parent = frames.pop()
      val v = frames.v
      val t = frames.t
      // A frame's parent is still in its tree: nodes leave a tree only in
      // expiry, before that tree's frames are built.
      val tree = parent.tree
      if (parent.ts > minTs) {
        val newTs = math.min(frames.edgeTs, parent.ts)
        if (newTs > minTs) {
          val existing = tree.nodes.get(v, t)
          val node =
            if (existing == null) {
              val n = new Node(v, t, parent, newTs)
              parent.addChild(n)
              addNode(tree, n)
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
            val out = graph.outOf(v)
            var i = 0
            while (i < out.size) {
              val ets = out.ts(i)
              val q = dfa.step(t, out.label(i))
              if (ets > minTs && q >= 0) {
                val dst = out.other(i)
                val ex = tree.nodes.get(dst, q)
                if (ex == null || ex.ts < math.min(node.ts, ets)) frames.push(node, dst, q, ets)
              }
              i += 1
            }
          }
        }
      }
    }

  // ------------------------------------------------------------------ expiry

  /** Delete's reconnection: re-pull each disconnected pair still in the window
    * from all valid in-edges, even if re-added, so `drain` settles it at its max–min
    * freshness, unless it is back at its old `ts`; lazily expired ones stay out.
    */
  protected def reconnect(tree: Tree, expired: Array[Node], minTs: Long): Array[Node] = {
    expired.foreach { n =>
      if (n.ts > minTs) {
        val m = tree.nodes.get(n.v, n.s)
        if (m == null || m.ts < n.ts) traverse(minTs)(reopen(tree, n.v, n.s, minTs))
      }
    }
    expired
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
