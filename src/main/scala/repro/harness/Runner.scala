package repro.harness

import repro.automaton.Dfa
import repro.batch.PersistentBatchBaseline
import repro.core.{DeltaForest, Metrics, RapqEngine, RspqBudgetExceeded, RspqEngine}
import repro.stream.{Sgt, WindowSpec}

/** Shared experiment driver: runs an engine over a stream, recording the
  * paper's metrics (mean/p99 tuple latency, throughput, Δ index size).
  *
  * Like the paper (§5.2), latency is recorded only for tuples whose label is
  * in the query alphabet — others are discarded in O(1) and would just
  * dilute the distribution.
  */
object Runner {

  /** One experiment row. Latencies in microseconds, throughput in tuples/s. */
  final case class RunResult(
      query: String,
      dataset: String,
      tuples: Int,
      matched: Int,
      throughputPerSec: Double,
      meanMicros: Double,
      p99Micros: Double,
      trees: Int,
      nodes: Long,
      resultPairs: Long,
      expiryMillis: Double,
      conflicts: Long = 0,
      completed: Boolean = true,
  )

  /** Run Algorithm RAPQ over `stream`. */
  def runRapq(query: String, dataset: String, dfa: Dfa, window: WindowSpec,
              stream: Seq[Sgt]): RunResult = {
    val engine = new RapqEngine(dfa, window, collectResults = false)
    val metrics = new Metrics
    replay(stream, dfa.alphabet, metrics)(engine.processTuple)
    row(query, dataset, stream, metrics, engine)
  }

  /** Run Algorithm RSPQ; a blown per-tuple budget marks the run as not
    * completed (the Table 4 "unsuccessful query" signal).
    */
  def runRspq(query: String, dataset: String, dfa: Dfa, window: WindowSpec,
              stream: Seq[Sgt], stepBudget: Long = 5_000_000): RunResult = {
    val engine = new RspqEngine(dfa, window, collectResults = false,
                                stepBudgetPerTuple = stepBudget)
    val metrics = new Metrics
    val completed =
      try { replay(stream, dfa.alphabet, metrics)(engine.processTuple); true }
      catch { case _: RspqBudgetExceeded => false }
    row(query, dataset, stream, metrics, engine)
      .copy(conflicts = engine.conflictCount, completed = completed)
  }

  /** Run the Virtuoso-emulation baseline (full re-evaluation per arrival);
    * `resultPairs` is the size of the last window's result set.
    */
  def runBaseline(query: String, dataset: String, dfa: Dfa, window: WindowSpec,
                  stream: Seq[Sgt]): RunResult = {
    val baseline = new PersistentBatchBaseline(dfa, window)
    val metrics = new Metrics
    var pairs = 0L
    replay(stream, dfa.alphabet, metrics) { t => pairs = baseline.processTuple(t).size.toLong }
    RunResult(query, dataset, stream.size, metrics.count,
      metrics.throughputPerSec, metrics.meanMicros, metrics.p99Micros,
      0, 0, pairs, 0.0)
  }

  /** The timed loop: feeds every tuple to `step`, recording the latency of
    * those whose label is in `alphabet`.
    */
  private def replay(stream: Seq[Sgt], alphabet: Set[String], metrics: Metrics)
                    (step: Sgt => Unit): Unit =
    stream.foreach { t =>
      if (alphabet.contains(t.label)) {
        val t0 = System.nanoTime()
        step(t)
        metrics.record(System.nanoTime() - t0)
      } else step(t)
    }

  private def row(query: String, dataset: String, stream: Seq[Sgt], metrics: Metrics,
                  engine: DeltaForest): RunResult =
    RunResult(query, dataset, stream.size, metrics.count,
      metrics.throughputPerSec, metrics.meanMicros, metrics.p99Micros,
      engine.numTrees, engine.numNodes, engine.emissionCount,
      engine.expiryNanos / 1e6)

  /** Render rows as a GitHub-flavoured markdown table. */
  def markdownTable(headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val sb = new StringBuilder
    sb.append(headers.mkString("| ", " | ", " |\n"))
    sb.append(headers.map(_ => "---").mkString("| ", " | ", " |\n"))
    rows.foreach(r => sb.append(r.mkString("| ", " | ", " |\n")))
    sb.toString
  }

  def fmt(d: Double): String =
    if (d >= 1000) f"$d%.0f" else if (d >= 10) f"$d%.1f" else f"$d%.2f"
}
