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
  *   - an extension is refused when it would revisit a vertex whose
  *     first-occurrence state does not suffix-contain the new state
  *     (Definition 16) — the conflict case.
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
    * set. Throws [[RspqBudgetExceeded]] past the per-tuple budget.
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
        // prefix-path states at vertex v; head == FIRST(p[v]) (closest to root)
        var statesAtV = List.empty[Int]
        var cur = parent
        while (cur != null) { if (cur.v == v) statesAtV ::= cur.s; cur = cur.parent }

        if (!statesAtV.contains(t)) {
          if (statesAtV.nonEmpty && !containment.superset(statesAtV.head, t)) {
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
    while (cur != null && tree.markings.remove(key(cur.v, cur.s)).isDefined) {
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
    val marked = expired.filter(n => tree.markings.remove(key(n.v, n.s)).isDefined)
    steps = 0 // expiry gets its own budget window
    traverse(minTs)(marked.foreach(n => reopen(tree, n.v, n.s, minTs)))
    marked
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
    * primitive-keyed map to `()`. Its nodes are stored as a RAPQ tree's.
    */
  private[core] final class Tree(x: Long, start: Int, rootKey: Long)
      extends DeltaForest.Tree(x, start) {
    val markings = mutable.LongMap(rootKey -> (()))
  }
}
