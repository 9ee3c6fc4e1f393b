package repro.spark

import java.nio.file.Files

import scala.jdk.CollectionConverters._

import repro.SparkSpec
import repro.automaton.Dfa
import repro.stream.{Op, Sgt, WindowSpec}

/** End-to-end Structured Streaming deployment: sgts dropped as files, results
  * appended to the output log by the foreachBatch maintainer.
  */
class StructuredStreamingRpqSpec extends SparkSpec {

  private def withJob(pattern: String, window: WindowSpec)
                     (body: StructuredStreamingRpq => Unit): Unit = {
    val dir = Files.createTempDirectory("rpq-stream")
    val job = new StructuredStreamingRpq(spark, Dfa.fromPattern(pattern), window, dir)
    try {
      job.start()
      body(job)
    } finally job.stop()
  }

  test("a two-batch stream produces the joined result") {
    withJob("a b", WindowSpec(100, 10)) { job =>
      job.feed(Seq(Sgt(1, 1, 2, "a")), batchId = 0)
      job.processAllAvailable()
      assert(job.output.isEmpty)
      // a backslash, then u0061: written unescaped, a JSON reader reads the label as `a`
      job.feed(Seq(Sgt(2, 5, 2, "\\" + "u0061")), batchId = 1)
      // the incremental maintainer cannot apply deletions, so they are refused
      intercept[IllegalArgumentException](job.feed(Seq(Sgt(3, 1, 2, "a", Op.Delete)), batchId = 2))
      job.feed(Seq(Sgt(3, 2, 3, "b")), batchId = 2)
      job.processAllAvailable()
      assert(job.output.asScala.toSet == Set((1L, 3L)))
    }
  }

  test("results accumulate over many micro-batches of a chain") {
    withJob("a+", WindowSpec(1000, 100)) { job =>
      (0 until 4).foreach { i =>
        job.feed(Seq(Sgt(i + 1L, i.toLong, i + 1L, "a")), batchId = i)
      }
      job.processAllAvailable()
      val expected = (for (i <- 0 to 3; j <- i + 1 to 4) yield (i.toLong, j.toLong)).toSet
      assert(job.output.asScala.toSet == expected)
    }
  }

  test("window expiry inside the streaming job") {
    withJob("a b", WindowSpec(10, 5)) { job =>
      job.feed(Seq(Sgt(1, 1, 2, "a"), Sgt(2, 2, 3, "b")), batchId = 0)
      job.processAllAvailable()
      job.feed(Seq(Sgt(50, 8, 9, "a")), batchId = 1)
      job.processAllAvailable()
      assert(job.currentResults().isEmpty)
      // the append-only output log keeps the earlier result (implicit windows)
      assert(job.output.asScala.toSet == Set((1L, 3L)))
    }
  }
}
