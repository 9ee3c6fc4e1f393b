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
  * window clock and Delete live in [[DeltaForest]].
  *
  * Differences from [[RapqEngine]] (paper §4.1):
  *   - a spanning tree may hold *several* nodes for the same `(v, s)` pair
  *     when conflicts force re-traversal, so the node index maps a pair to a
  *     set of tree nodes;
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

  val containment: Containment = Containment(dfa)
  var conflictCount: Long = 0L

  private var steps: Long = 0L

  // ------------------------------------------------------------------ insert

  protected def insertEdge(ts: Long, u: Long, v: Long, label: String): Unit = {
    steps = 0
    graph.add(u, v, label, ts)
    val pairs = dfa.byLabel.getOrElse(label, Nil)
    if (pairs.isEmpty) return
    val minTs = window.lowerBound(ts)

    if (pairs.exists(_._1 == dfa.start) && !trees.contains(u)) {
      val tree = new Tree(u, dfa.start)
      addNode(tree, key(u, dfa.start), tree.rootNode)
      tree.markings += key(u, dfa.start)
      trees(u) = tree
    }

    val snapshot = treesOf(u).toArray
    snapshot.foreach { tree =>
      val frames = mutable.Stack.empty[Frame]
      pairs.foreach { case (s, t) =>
        // a marked pair has one node; an unmarked one may have several
        tree.nodesFor(key(u, s)).foreach { n =>
          if (n.ts > minTs) frames.push(Frame(n, v, t, ts))
        }
      }
      drain(tree, frames, minTs)
    }
  }

  /** Run the Extend/Unmark state machine to quiescence. Every frame re-checks
    * the pruning cases at pop time, so ordering does not affect the result
    * set. Throws [[RspqBudgetExceeded]] past the per-tuple budget.
    */
  private def drain(tree: Tree, frames: mutable.Stack[Frame], minTs: Long): Unit = {
    while (frames.nonEmpty) {
      val Frame(parent, v, t, edgeTs) = frames.pop()
      steps += 1
      if (steps > stepBudgetPerTuple) throw new RspqBudgetExceeded(stepBudgetPerTuple)
      // A frame's parent is still in the tree: nodes leave a tree only in
      // expiry, before that tree's frames are built.
      if (parent.ts > minTs) {
        // prefix-path states at vertex v; head == FIRST(p[v]) (closest to root)
        var statesAtV = List.empty[Int]
        var cur = parent
        while (cur != null) { if (cur.v == v) statesAtV ::= cur.s; cur = cur.parent }

        if (!statesAtV.contains(t) && !tree.markings.contains(key(v, t))) {
          if (statesAtV.nonEmpty && !containment.superset(statesAtV.head, t)) {
            // Case 3 — conflict at v between FIRST(p[v]) and t: do not extend;
            // unmark the prefix path so pruned alternatives are re-explored.
            conflictCount += 1
            unmark(tree, parent, minTs, frames)
          } else {
            // Case 4 — extend the path with (v, t).
            val ts = math.min(edgeTs, parent.ts)
            if (ts > minTs) {
              val wasAbsent = tree.nodesFor(key(v, t)).isEmpty
              val node = new Node(v, t, parent, ts)
              parent.addChild(node)
              addNode(tree, key(v, t), node)
              if (dfa.isFinal(t) && v != tree.rootVertex) emit(tree.rootVertex, v)
              if (wasAbsent) tree.markings += key(v, t)
              graph.outEdges(v, minTs).foreach { e =>
                dfa.delta(t, e.label).foreach { r =>
                  frames.push(Frame(node, e.dst, r, e.ts))
                }
              }
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
  private def unmark(tree: Tree, from: Node, minTs: Long, frames: mutable.Stack[Frame]): Unit = {
    val reopened = mutable.ListBuffer.empty[(Long, Int)]
    var cur = from
    while (cur != null && tree.markings.contains(key(cur.v, cur.s))) {
      tree.markings -= key(cur.v, cur.s)
      reopened += ((cur.v, cur.s))
      cur = cur.parent
    }
    reopened.foreach { case (v, t) => reopen(tree, v, t, minTs, frames) }
  }

  /** Schedule an extension to `(v, t)` from every valid node with a window
    * edge into `v` that the DFA takes to `t`.
    */
  private def reopen(tree: Tree, v: Long, t: Int, minTs: Long, frames: mutable.Stack[Frame]): Unit =
    graph.inEdges(v, minTs).foreach { e =>
      dfa.byLabel.getOrElse(e.label, Nil).foreach { case (q, t2) =>
        if (t2 == t) {
          tree.nodesFor(key(e.src, q)).foreach { m =>
            if (m.ts > minTs) frames.push(Frame(m, v, t, e.ts))
          }
        }
      }
    }

  private def addNode(tree: Tree, k: Long, n: Node): Unit = {
    tree.nodes.getOrElseUpdate(k, mutable.LinkedHashSet.empty) += n
    nodeAdded(tree, n.v)
  }

  // ------------------------------------------------------------------ expiry

  /** Algorithm ExpiryRSPQ's reconnection: the expired nodes lose their
    * markings, and only the pairs that were *marked* are reconnected
    * (unmarked pairs were already fully re-opened by Unmark when they lost
    * their marking).
    */
  protected def reconnect(tree: Tree, expired: Array[Node], minTs: Long,
                          invalidated: mutable.Set[(Long, Long)]): Unit = {
    val markedExpired = mutable.LinkedHashSet.empty[(Long, Int)]
    expired.foreach { n =>
      if (tree.markings.remove(key(n.v, n.s))) markedExpired += ((n.v, n.s))
    }
    val frames = mutable.Stack.empty[Frame]
    markedExpired.foreach { case (v, t) => reopen(tree, v, t, minTs, frames) }
    steps = 0 // expiry gets its own budget window
    drain(tree, frames, minTs)
    markedExpired.foreach { case (v, t) =>
      if (tree.nodesFor(key(v, t)).isEmpty && dfa.isFinal(t) && v != tree.rootVertex)
        invalidated += ((tree.rootVertex, v))
    }
  }

  // ------------------------------------------------------------------ views

  /** Multiset of `(v, s)` occurrences in tree `T_x` — Figure 3 assertions. */
  def treeNodeCounts(x: Long): Map[(Long, Int), Int] =
    nodesOf(x).groupBy(n => (n.v, n.s)).map { case (k, v) => k -> v.size }

  /** Marked pairs of tree `T_x`. */
  def markedPairs(x: Long): Set[(Long, Int)] =
    trees.get(x).iterator.flatMap(_.markings)
      .map(k => (Math.floorDiv(k, dfa.k.toLong), Math.floorMod(k, dfa.k.toLong).toInt)).toSet
}

object RspqEngine {
  import DeltaForest.Node

  /** An extension attempt: try to add `(v, t)` as a child of `parent` using an
    * edge with timestamp `edgeTs`. All pruning cases re-checked at pop time.
    */
  private[core] final case class Frame(parent: Node, v: Long, t: Int, edgeTs: Long)

  /** Traversal tree `T_x` with its markings `M_x`; unlike RAPQ, several
    * nodes may share one `(v, s)` pair. Each pair's nodes keep insertion
    * order, which fixes the order of Extend's frames and of expiry's
    * reconnection, so a stream always yields the same markings and conflicts.
    */
  private[core] final class Tree(x: Long, start: Int) extends DeltaForest.Tree(x, start) {
    val nodes = mutable.LongMap.empty[mutable.LinkedHashSet[Node]]
    val markings = mutable.Set.empty[Long]

    def allNodes: Iterator[Node] = nodes.valuesIterator.flatten
    def nodesFor(k: Long): collection.Set[Node] = nodes.getOrElse(k, Set.empty[Node])
    def remove(k: Long, n: Node): Unit = {
      val set = nodes(k)
      set -= n
      if (set.isEmpty) nodes.remove(k)
    }
  }
}
