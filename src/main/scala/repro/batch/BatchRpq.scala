package repro.batch

import scala.collection.mutable

import repro.automaton.Dfa
import repro.stream.SnapshotGraph

/** Batch RPQ evaluation under arbitrary path semantics on a static snapshot
  * (paper §3, "Batch Algorithm", after Mendelzon & Wood [54]): a BFS of the
  * product graph `P_{G,A}` from every `(x, s0)`.
  *
  * Result convention (matches Algorithm Insert exactly, see DESIGN.md §3):
  * a pair `(x, v)` is an answer iff a product node `(v, t)` with `t ∈ F` is
  * reachable from `(x, s0)` through at least one edge, *excluding* the start
  * node `(x, s0)` itself — so ε-results are never reported, and neither is
  * the corner case where the only accepting witness for `(x, x)` is a cycle
  * returning to state `s0`.
  */
object BatchRpq {

  /** Labeled edge of a static snapshot. */
  final case class E(src: Long, dst: Long, label: String)

  def evaluate(edges: Iterable[E], dfa: Dfa): Set[(Long, Long)] = {
    // adjacency: src -> list of (dst, label)
    val adj = mutable.LongMap.empty[mutable.ArrayBuffer[(Long, String)]]
    val roots = mutable.LinkedHashSet.empty[Long]
    edges.foreach { e =>
      adj.getOrElseUpdate(e.src, mutable.ArrayBuffer.empty) += ((e.dst, e.label))
      if (dfa.delta(dfa.start, e.label).isDefined) roots += e.src
    }

    val results = mutable.Set.empty[(Long, Long)]
    val k = dfa.k

    roots.foreach { x =>
      // visited vertices per DFA state: no (v, s) encoding that could overflow
      val visited = Array.fill(k)(mutable.Set.empty[Long])
      val queue   = mutable.Queue.empty[(Long, Int)]
      visited(dfa.start) += x
      queue.enqueue((x, dfa.start))
      while (queue.nonEmpty) {
        val (v, s) = queue.dequeue()
        adj.getOrElse(v, Nil).foreach { case (w, l) =>
          dfa.delta(s, l).foreach { t =>
            // acceptance is checked on the relaxation, before the visited
            // check, but the start node never reports (ε-result convention)
            if (dfa.isFinal(t) && !(w == x && t == dfa.start)) results += ((x, w))
            if (visited(t).add(w)) queue.enqueue((w, t))
          }
        }
      }
    }
    results.toSet
  }

  /** Evaluate on the window-valid content of a [[SnapshotGraph]]: only edges
    * with `ts > minTs` participate.
    */
  def evaluateWindow(graph: SnapshotGraph, minTs: Long, dfa: Dfa): Set[(Long, Long)] =
    evaluate(graph.edges.filter(_.ts > minTs).map(e => E(e.src, e.dst, e.label)).toSeq, dfa)
}
