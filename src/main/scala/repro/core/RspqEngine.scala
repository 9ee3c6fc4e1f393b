package repro.core

import scala.collection.mutable

import repro.automaton.{Containment, Dfa}
import repro.stream.WindowSpec

/** Thrown when a single tuple exceeds the configured extension budget —
  * the practical signal that a query/graph combination is blowing up under
  * simple path semantics (RSPQ is NP-hard with conflicts; paper §4, §5.5).
  */
final class RspqBudgetExceeded(val budget: Long)
    extends RuntimeException(s"RSPQ extension budget exceeded: $budget")

/** Incremental RPQ evaluation under **simple path semantics** (paper §4:
  * Algorithms RSPQ, Extend, Unmark, ExpiryRSPQ). The Δ tree index, the
  * window clock, Delete and the extension traversal live in [[DeltaForest]];
  * this engine adds Extend/Unmark's rule, its per-tuple step budget and
  * ExpiryRSPQ's choice of what to reconnect.
  *
  * Differences from [[RapqEngine]] (paper §4.1):
  *   - a spanning tree may hold *several* nodes for the same `(v, s)` pair
  *     when conflicts force re-traversal: the tree keys its newest one, and
  *     the others follow it in the forest's pair list (see
  *     [[DeltaForest.Tree]]);
  *   - a markings set `M_x` per tree prunes re-visits (case 2); a pair is
  *     marked on its first insertion and unmarked when one of its descendants
  *     becomes a conflict predecessor (Definition 18), which re-opens the
  *     previously pruned incoming extensions (Algorithm Unmark);
  *   - a frame `(v, t)` is skipped when some occurrence of `v` on its prefix
  *     path already holds `t`, and refused when `v`'s first-occurrence state
  *     `FIRST(p[v])`, the one closest to the root, does not suffix-contain `t`
  *     (Definition 16) — the conflict case. One walk from the parent to the
  *     root decides both, keeping only `FIRST(p[v])` and whether `t` was seen.
  *
  * Deviations (documented in DESIGN.md §3): ExpiryRSPQ's re-marking
  * refinement (paper lines 12–15, re-adding parents to `M_x` once all their
  * children are marked again) is skipped — under-marking only costs extra
  * traversal work, never correctness.
  */
final class RspqEngine(
    dfa: Dfa,
    window: WindowSpec,
    collectResults: Boolean = true,
    stepBudgetPerTuple: Long = Long.MaxValue,
) extends DeltaForest(dfa, window, collectResults) {
  import DeltaForest.Node
  import RspqEngine._

  protected type T = Tree

  // A self-pair (x, x) can only witness the empty path under simple path
  // semantics (any length≥1 path x→…→x revisits x), and we do not report
  // ε-results — so self-pairs are never results.
  protected def selfPairs: Boolean = false
  protected def slideReconnects: Boolean = true

  protected def newTree(x: Long): Tree = new Tree(x, dfa.start, key(x, dfa.start))

  val containment: Containment = Containment(dfa)
  var conflictCount: Long = 0L

  private var steps: Long = 0L

  override protected def arrival(): Unit = steps = 0

  // ------------------------------------------------------------------ insert

  /** Run the Extend/Unmark state machine to quiescence. Every frame re-checks
    * the pruning cases at pop time, so ordering does not affect the result
    * set. A frame that passes the marking check walks its prefix path once,
    * with primitive locals only. Throws [[RspqBudgetExceeded]] past the
    * per-tuple budget.
    */
  protected def drain(minTs: Long): Unit =
    while (frames.nonEmpty) {
      val parent = frames.pop()
      val v = frames.v
      val t = frames.t
      steps += 1
      if (steps > stepBudgetPerTuple) throw new RspqBudgetExceeded(stepBudgetPerTuple)
      // A frame's parent is still in its tree: nodes leave a tree only in
      // expiry, before that tree's frames are built.
      val tree = parent.tree.asInstanceOf[Tree]
      // Case 2 — a marked pair is pruned whatever the prefix path holds.
      if (parent.ts > minTs && !tree.markings.contains(key(v, t))) {
        // One walk up the prefix path: `first` ends as FIRST(p[v]), the state
        // of v's occurrence closest to the root (−1 if v is not on the path);
        // the walk stops early at an occurrence of (v, t), which skips the frame.
        var first = -1
        var holdsT = false
        var cur = parent
        while (cur != null && !holdsT) {
          if (cur.v == v) { first = cur.s; holdsT = cur.s == t }
          cur = cur.parent
        }

        if (!holdsT) {
          if (first >= 0 && !containment.superset(first, t)) {
            // Case 3 — conflict at v between FIRST(p[v]) and t: do not extend;
            // unmark the prefix path so pruned alternatives are re-explored.
            conflictCount += 1
            unmark(tree, parent, minTs)
          } else {
            // Case 4 — extend the path with (v, t).
            val ts = math.min(frames.edgeTs, parent.ts)
            if (ts > minTs) {
              val wasAbsent = tree.nodes.get(v, t) == null
              val node = new Node(v, t, parent, ts)
              parent.addChild(node)
              addNode(tree, node)
              if (dfa.isFinal(t) && v != tree.rootVertex) emit(tree.rootVertex, v)
              if (wasAbsent) tree.markings(key(v, t)) = ()
              val out = graph.outOf(v)
              var i = 0
              while (i < out.size) {
                val ets = out.ts(i)
                val r = dfa.step(t, out.label(i))
                if (ets > minTs && r >= 0) frames.push(node, out.other(i), r, ets)
                i += 1
              }
            }
          }
        }
      }
    }

  /** Algorithm Unmark: pop marked ancestors starting at the conflict
    * predecessor `from`; for each newly unmarked pair, re-open the window's
    * incoming extensions that case 2 previously pruned.
    */
  private def unmark(tree: Tree, from: Node, minTs: Long): Unit = {
    var cur = from
    while (cur != null && tree.markings.contains(key(cur.v, cur.s))) {
      tree.markings.subtractOne(key(cur.v, cur.s))
      reopen(tree, cur.v, cur.s, minTs)
      cur = cur.parent
    }
  }

  // ------------------------------------------------------------------ expiry

  /** Algorithm ExpiryRSPQ's reconnection: the expired nodes lose their
    * markings, and only the pairs that were *marked* are reconnected
    * (unmarked pairs were already fully re-opened by Unmark when they lost
    * their marking).
    */
  protected def reconnect(tree: Tree, expired: Array[Node], minTs: Long): Array[Node] = {
    // one node per marked pair: a pair's marking is removed only once
    val marked = new Array[Node](expired.length)
    var numMarked = 0
    var i = 0
    while (i < expired.length) {
      val n = expired(i)
      if (tree.markings.contains(key(n.v, n.s))) {
        tree.markings.subtractOne(key(n.v, n.s))
        marked(numMarked) = n
        numMarked += 1
      }
      i += 1
    }
    steps = 0 // expiry gets its own budget window
    traverse(minTs) {
      var j = 0
      while (j < numMarked) { reopen(tree, marked(j).v, marked(j).s, minTs); j += 1 }
    }
    java.util.Arrays.copyOf(marked, numMarked)
  }

  // ------------------------------------------------------------------ views

  /** Multiset of `(v, s)` occurrences in tree `T_x` — Figure 3 assertions. */
  def treeNodeCounts(x: Long): Map[(Long, Int), Int] =
    nodesOf(x).groupBy(n => (n.v, n.s)).map { case (k, v) => k -> v.size }

  /** Marked pairs of tree `T_x`. */
  def markedPairs(x: Long): Set[(Long, Int)] =
    trees.get(x).iterator.flatMap(_.markings.keysIterator)
      .map(k => (Math.floorDiv(k, dfa.k.toLong), Math.floorMod(k, dfa.k.toLong).toInt)).toSet
}

object RspqEngine {

  /** Traversal tree `T_x` with its markings `M_x`, as a key set: a
    * primitive-keyed map to `()`, probed with `contains` and cleared with
    * `subtractOne`, which take the `Long` key unboxed. Its nodes are stored
    * as a RAPQ tree's.
    */
  private[core] final class Tree(x: Long, start: Int, rootKey: Long)
      extends DeltaForest.Tree(x, start) {
    val markings = new mutable.LongMap[Unit](2) // sized for the root's key alone
    markings(rootKey) = ()
  }
}
