package rpqbench

import repro.automaton.Dfa
import repro.core.{RapqEngine, RspqEngine}
import repro.stream.{Sgt, SnapshotGraph}

/** The public surface of `RapqEngine` and `RspqEngine` that the benchmark
  * calls. Everything it measures is timed or counted from outside these calls.
  */
sealed trait Engine {
  def process(t: Sgt): Unit
  def graph: SnapshotGraph
  def numNodes: Long
  def numTrees: Int
  def emissions: Long
  def expiryNanos: Long
  /** ExpiryRAPQ runs so far; RSPQ does not count its expiry runs (0). */
  def expiryRuns: Long
  def conflicts: Long
  def forceExpiry(ts: Long): Unit
  def currentResults(ts: Long): Set[(Long, Long)]
  def distinctResults: Int
}

object Engine {
  def apply(w: Workload, dfa: Dfa, collectResults: Boolean): Engine =
    if (w.simple) new Rspq(new RspqEngine(dfa, w.window, collectResults, Workloads.RspqStepBudget))
    else new Rapq(new RapqEngine(dfa, w.window, collectResults))

  final class Rapq(val e: RapqEngine) extends Engine {
    def process(t: Sgt): Unit = e.processTuple(t)
    def graph: SnapshotGraph = e.graph
    def numNodes: Long = e.numNodes
    def numTrees: Int = e.numTrees
    def emissions: Long = e.emissionCount
    def expiryNanos: Long = e.expiryNanos
    def conflicts: Long = 0L
    def forceExpiry(ts: Long): Unit = e.forceExpiry(ts)
    def currentResults(ts: Long): Set[(Long, Long)] = e.currentResults(ts)
    def distinctResults: Int = e.results.size
    def expiryRuns: Long = e.expiryRuns
  }

  final class Rspq(val e: RspqEngine) extends Engine {
    def process(t: Sgt): Unit = e.processTuple(t)
    def graph: SnapshotGraph = e.graph
    def numNodes: Long = e.numNodes
    def numTrees: Int = e.numTrees
    def emissions: Long = e.emissionCount
    def expiryNanos: Long = e.expiryNanos
    def conflicts: Long = e.conflictCount
    def forceExpiry(ts: Long): Unit = e.forceExpiry(ts)
    def currentResults(ts: Long): Set[(Long, Long)] = e.currentResults(ts)
    def distinctResults: Int = e.results.size
    def expiryRuns: Long = 0L
  }
}
