package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.automaton.Dfa

/** Batch RPQ evaluation under arbitrary path semantics as a Catalyst dataflow:
  * a semi-naive fixpoint over the product graph `P_{G,A}` expressed purely
  * with DataFrame joins/unions/distinct.
  *
  * Used (a) as the distributed analogue of the paper's batch algorithm and
  * (b) as the target of the DuckDB `WITH RECURSIVE` oracle — see
  * [[SparkBatchRpq.oracleSql]].
  *
  * Result convention matches [[repro.batch.BatchRpq]]: pairs `(x, v)` with an
  * accepting product node reachable through ≥ 1 edge, excluding the start
  * node `(x, s0)` itself.
  */
object SparkBatchRpq {

  /** Catalyst's constraint propagation chokes on unions of
    * `localCheckpoint`ed plans (stale attribute ids inside
    * `UnionBase.rewriteConstraints`); semi-naive loops hit exactly that
    * shape, so we disable it for the duration of a fixpoint.
    */
  private def withoutConstraintPropagation[A](spark: SparkSession)(body: => A): A = {
    val key = "spark.sql.constraintPropagation.enabled"
    val old = spark.conf.getOption(key)
    spark.conf.set(key, "false")
    try body
    finally old match {
      case Some(v) => spark.conf.set(key, v)
      case None    => spark.conf.unset(key)
    }
  }

  /** The DFA's transition relation as a DataFrame `(s, label, t)`. */
  def transitionsDf(spark: SparkSession, dfa: Dfa): DataFrame = {
    import spark.implicits._
    dfa.transitionRows.toDF("s", "label", "t")
  }

  /** Product-graph edges `((src, s) → (dst, t))` of `edges(src, dst, label)`. */
  def productEdges(edges: DataFrame, dfa: Dfa): DataFrame = {
    val spark = edges.sparkSession
    edges.join(transitionsDf(spark, dfa), "label").select("src", "dst", "s", "t")
  }

  /** Evaluate the RPQ over `edges(src: Long, dst: Long, label: String)`.
    * Returns a DataFrame `(x, v)` of distinct result pairs.
    */
  def evaluate(edges: DataFrame, dfa: Dfa): DataFrame =
    withoutConstraintPropagation(edges.sparkSession) { evaluateImpl(edges, dfa) }

  private def evaluateImpl(edges: DataFrame, dfa: Dfa): DataFrame = {
    val pe = productEdges(edges, dfa).localCheckpoint(eager = true)

    var all   = pe.where(col("s") === dfa.start)
                  .select(col("src").as("x"), col("dst").as("v"), col("t").as("s"))
                  .distinct()
                  .localCheckpoint(eager = true)
    var delta = all
    var done  = delta.isEmpty

    while (!done) {
      val next = delta.as("d")
        .join(pe.as("p"), col("d.v") === col("p.src") && col("d.s") === col("p.s"))
        .select(col("d.x").as("x"), col("p.dst").as("v"), col("p.t").as("s"))
        .distinct()
      delta = next.except(all).localCheckpoint(eager = true)
      done = delta.isEmpty
      if (!done) all = all.union(delta).localCheckpoint(eager = true)
    }

    accepting(all, dfa)
  }

  /** Distinct result pairs `(x, v)` of the reached product nodes `(x, v, s)`:
    * `s` is final, and the empty path, `v = x` with `s = s0`, is left out.
    */
  private def accepting(reached: DataFrame, dfa: Dfa): DataFrame =
    reached
      .where(col("s").isInCollection(dfa.finals.toSeq))
      .where(!(col("v") === col("x") && col("s") === dfa.start))
      .select("x", "v")
      .distinct()

  /** DuckDB ground-truth for [[evaluate]], over oracle tables
    * `edges(src, dst, label)`, `trans(s, label, t)` and `finals(state)`
    * (all columns VARCHAR on the oracle side; compare via
    * `repro.Oracle.assertEquivalent`).
    */
  def oracleSql(dfa: Dfa): String =
    s"""WITH RECURSIVE reach(x, v, s) AS (
       |  SELECT e.src, e.dst, t.t
       |  FROM edges e JOIN trans t ON e.label = t.label AND t.s = '${dfa.start}'
       |  UNION
       |  SELECT r.x, e.dst, t.t
       |  FROM reach r
       |  JOIN edges e ON r.v = e.src
       |  JOIN trans t ON t.s = r.s AND t.label = e.label
       |)
       |SELECT DISTINCT x, v FROM reach
       |WHERE s IN (SELECT state FROM finals)
       |  AND NOT (v = x AND s = '${dfa.start}')
       |""".stripMargin
}
