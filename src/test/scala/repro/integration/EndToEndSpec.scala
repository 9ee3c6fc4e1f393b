package repro.integration

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.core.RapqEngine
import repro.data.{Queries, StreamGen}
import repro.harness.Runner
import repro.spark.SparkBatchRpq
import repro.stream.WindowSpec

/** Cross-layer integration: the single-machine Δ-index engine and the Spark
  * batch evaluator must agree on the same synthetic streams the benchmarks
  * use, and the harness runs every Table 2 query.
  */
class EndToEndSpec extends SparkSpec {

  private def pairs(df: DataFrame): Set[(Long, Long)] =
    df.collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  test("Spark batch evaluation matches the core engine's window view on SO-like data") {
    val dfa = Queries.so.find(_.name == "Q2").get.dfa
    val stream = StreamGen.soLike(nVertices = 30, nEdges = 250)
    val window = WindowSpec(size = 80, slide = 20)

    val engine = new RapqEngine(dfa, window)
    stream.foreach(engine.processTuple)
    engine.forceExpiry(stream.last.ts)

    import spark.implicits._
    val windowDf = engine.graph.edges
      .filter(_.ts > window.lowerBound(stream.last.ts))
      .map(e => (e.src, e.dst, e.label)).toSeq.toDF("src", "dst", "label")
    assert(engine.currentResults(stream.last.ts) == pairs(SparkBatchRpq.evaluate(windowDf, dfa)))
  }

  test("the harness runner produces consistent metrics on a Yago-like stream") {
    val q = Queries.yago.find(_.name == "Q7").get
    val stream = StreamGen.yagoLike(nEntities = 200, nEdges = 2000)
    val r = Runner.runRapq(q.name, "yago", q.dfa, WindowSpec(500, 50), stream)
    assert(r.matched > 0 && r.matched <= stream.size)
    assert(r.p99Micros >= r.meanMicros * 0.5)
    assert(r.throughputPerSec > 0)
  }

  test("all Table 2 queries run end-to-end on all three datasets (smoke)") {
    Seq("so" -> StreamGen.soLike(60, 600),
        "ldbc" -> StreamGen.ldbcLike(60, 600),
        "yago" -> StreamGen.yagoLike(80, 600)).foreach { case (ds, stream) =>
      Queries.forDataset(ds).foreach { q =>
        val r = Runner.runRapq(q.name, ds, q.dfa, WindowSpec(200, 50), stream)
        assert(r.tuples == stream.size, s"$ds/${q.name}")
      }
    }
  }
}
