package repro.batch

import repro.automaton.Dfa
import repro.stream.{Op, Sgt, SlideClock, SnapshotGraph, WindowSpec}

/** Emulation of persistent RPQ evaluation over a system without incremental
  * operators — the paper's Virtuoso baseline (§5.6): every arriving tuple is
  * inserted into the store and the query is re-evaluated *from scratch* on
  * the RDF graph built from the current window content.
  *
  * We substitute our in-memory batch evaluator for Virtuoso's α-RA property
  * path engine (DESIGN.md §4): the baseline's defining cost — full
  * re-evaluation per arrival, no reuse of previous results — is preserved,
  * which is what produces the orders-of-magnitude gap of Figure 11.
  */
final class PersistentBatchBaseline(val dfa: Dfa, val window: WindowSpec) {

  val graph = new SnapshotGraph
  private val clock = new SlideClock(window.slide)

  /** Insert the tuple, lazily expire, re-evaluate the full window. Returns
    * the complete (not incremental) result set — the caller diffs if needed.
    */
  def processTuple(t: Sgt): Set[(Long, Long)] = {
    if (clock.tick(t.ts)) graph.pruneExpired(window.lowerBound(t.ts))
    t.op match {
      case Op.Insert => graph.add(t.src, t.dst, t.label, t.ts)
      case Op.Delete => graph.remove(t.src, t.dst, t.label)
    }
    BatchRpq.evaluateWindow(graph, window.lowerBound(t.ts), dfa)
  }
}
