package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.automaton.Dfa
import repro.stream.WindowSpec

/** Distributed-dataflow analogue of Algorithm RAPQ: incremental maintenance
  * of window RPQ results as a DataFrame fixpoint (DESIGN.md §2).
  *
  * State is the relation `reached(x, v, s, bestTs)` where `bestTs` is the
  * *freshness* of the best window path from `(x, s0)` to `(v, s)`:
  * `bestTs = max over paths p of (min edge ts in p)` — a max–min semiring.
  * This is exactly what a Δ-tree node `(v, s) ∈ T_x` with its timestamp
  * represents; a pair `(x, v)` is a window result at time τ iff
  * `bestTs > τ − |W|` for some accepting `s`.
  *
  * Unlike the single-machine engine (which repairs stale timestamps lazily at
  * expiry), each micro-batch propagates freshness improvements to a full
  * fixpoint, so expiry is an exact `bestTs` filter. Explicit deletions are
  * not incrementalized at this layer (a deletion can strand `bestTs` values
  * derived from the deleted edge); streams with deletions should be handled
  * by the core engine or by re-evaluation via [[SparkBatchRpq]].
  */
final class SparkIncrementalRpq(spark: SparkSession, val dfa: Dfa, val window: WindowSpec) {
  import spark.implicits._

  private val trans = SparkBatchRpq.transitionsDf(spark, dfa).cache()

  /** Window content `(src, dst, label, ts)`, freshest copy per logical edge. */
  private var windowEdges: DataFrame =
    Seq.empty[(Long, Long, String, Long)].toDF("src", "dst", "label", "ts")

  /** `reached(x, v, s, bestTs)` — see class doc. */
  private var state: DataFrame =
    Seq.empty[(Long, Long, Int, Long)].toDF("x", "v", "s", "bestTs")

  /** Highest event timestamp processed so far. */
  private var maxTs: Long = Long.MinValue

  private def bestOf(df: DataFrame): DataFrame =
    df.groupBy("x", "v", "s").agg(max("bestTs").as("bestTs"))

  /** Rows of `delta` strictly fresher than anything already in `base`. */
  private def dominating(delta: DataFrame, base: DataFrame): DataFrame =
    delta.as("d")
      .join(base.as("b"),
            col("d.x") === col("b.x") && col("d.v") === col("b.v") && col("d.s") === col("b.s"),
            "left_outer")
      .where(col("b.bestTs").isNull || col("d.bestTs") > col("b.bestTs"))
      .select(col("d.x"), col("d.v"), col("d.s"), col("d.bestTs"))

  /** Ingest one micro-batch `(src, dst, label, ts)` of append-only sgts.
    * Returns the batch's newly discovered result pairs `(x, v)` (pairs whose
    * accepting state was not previously reachable with a window-valid path).
    */
  def processBatch(batch: DataFrame): DataFrame =
    SparkBatchRpq.withoutConstraintPropagation(spark) { processBatchImpl(batch) }

  private def processBatchImpl(batch: DataFrame): DataFrame = {
    Option(batch.agg(max("ts")).collect().head.get(0))
      .foreach(m => maxTs = math.max(maxTs, m.asInstanceOf[Long]))
    val minTs = window.lowerBound(maxTs)

    // refresh window content: newest copy per logical edge, expired dropped
    windowEdges = windowEdges.union(batch.select("src", "dst", "label", "ts"))
      .groupBy("src", "dst", "label").agg(max("ts").as("ts"))
      .where(col("ts") > minTs)
      .localCheckpoint(eager = true)

    val windowPe = windowEdges
      .join(trans, "label")
      .select(col("src"), col("dst"), col("s"), col("t"), col("ts"))
      .localCheckpoint(eager = true)

    val batchPe = batch.join(trans, "label")
      .select(col("src"), col("dst"), col("s"), col("t"), col("ts"))

    // seed: paths starting with a new edge, and state extended by a new edge
    val seedRoot = batchPe.where(col("s") === dfa.start)
      .select(col("src").as("x"), col("dst").as("v"), col("t").as("s"), col("ts").as("bestTs"))
    val seedExt = state.as("r")
      .join(batchPe.as("p"), col("r.v") === col("p.src") && col("r.s") === col("p.s"))
      .select(col("r.x").as("x"), col("p.dst").as("v"), col("p.t").as("s"),
              least(col("r.bestTs"), col("p.ts")).as("bestTs"))

    var acc   = bestOf(state.where(col("bestTs") > minTs)).localCheckpoint(eager = true)
    var frontier = dominating(bestOf(seedRoot.union(seedExt).where(col("bestTs") > minTs)), acc)
      .localCheckpoint(eager = true)
    while (!frontier.isEmpty) {
      acc = bestOf(acc.union(frontier)).localCheckpoint(eager = true)
      val prop = frontier.as("d")
        .join(windowPe.as("p"), col("d.v") === col("p.src") && col("d.s") === col("p.s"))
        .select(col("d.x").as("x"), col("p.dst").as("v"), col("p.t").as("s"),
                least(col("d.bestTs"), col("p.ts")).as("bestTs"))
        .where(col("bestTs") > minTs)
      frontier = dominating(bestOf(prop), acc).localCheckpoint(eager = true)
    }

    val previous = state
    state = acc

    // new result pairs: accepting + valid now, not accepting + valid before
    def valid(df: DataFrame): DataFrame =
      SparkBatchRpq.accepting(df.where(col("bestTs") > minTs), dfa)
    valid(state).except(valid(previous))
  }

  /** Current explicit-window result pairs `(x, v)` as of the max seen ts. */
  def currentResults(): DataFrame =
    SparkBatchRpq.accepting(state.where(col("bestTs") > window.lowerBound(maxTs)), dfa)

  /** The maintained window content (for cross-checks against the batch path). */
  def currentWindowEdges(): DataFrame = windowEdges
}
