package repro.spark

import repro.automaton.Dfa
import repro.stream.{Sgt, WindowSpec}

/** Incremental RPQ maintenance on Spark, as the streaming job does it: the
  * window content after each batch decides the results, checked on small
  * hand-built streams.
  */
class SparkIncrementalRpqSpec extends StreamingJobSpec {

  test("single batch matches from-scratch evaluation") {
    val batch = Seq(Sgt(1, 1, 2, "a"), Sgt(2, 2, 3, "b"))
    import spark.implicits._
    val edges = batch.map(t => (t.src, t.dst, t.label)).toDF("src", "dst", "label")
    val expected = SparkBatchRpq.evaluate(edges, Dfa.fromPattern("a b"))
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(expected == Set((1L, 3L)))
    withJob(rapq("a b", WindowSpec(100, 10))) { job =>
      assert(step(job, batch, 0) == expected)
      assert(job.currentResults() == expected)
    }
  }

  test("window expiry drops results whose freshest witness left the window") {
    withJob(rapq("a b", WindowSpec(10, 5))) { job =>
      step(job, Seq(Sgt(1, 1, 2, "a"), Sgt(2, 2, 3, "b")), 0)
      assert(job.currentResults() == Set((1L, 3L)))
      step(job, Seq(Sgt(20, 7, 8, "a")), 1)
      assert(job.currentResults().isEmpty)
    }
  }

  test("refreshed edges keep results alive past the original expiry") {
    withJob(rapq("a b", WindowSpec(10, 5))) { job =>
      step(job, Seq(Sgt(1, 1, 2, "a"), Sgt(2, 2, 3, "b")), 0)
      assert(job.currentResults() == Set((1L, 3L)))
      step(job, Seq(Sgt(8, 1, 2, "a"), Sgt(9, 2, 3, "b")), 1)
      step(job, Seq(Sgt(12, 5, 6, "a")), 2)
      assert(job.currentResults() == Set((1L, 3L)))
    }
  }
}
