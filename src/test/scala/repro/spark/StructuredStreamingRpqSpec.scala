package repro.spark

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

import org.apache.spark.sql.streaming.StreamingQueryException

import repro.automaton.Dfa
import repro.batch.{BatchRpq, BruteForceSimple}
import repro.core.{DeltaForest, RapqEngine, RspqBudgetExceeded, RspqEngine}
import repro.data.StreamGen
import repro.stream.{Op, Sgt, WindowSpec}

/** End-to-end Structured Streaming deployment: sgts dropped as files, fed to
  * the paper's engines on the driver, results appended to the output log.
  * Randomized streams with deletions are checked after every micro-batch
  * against an oracle on the window content the test derives from the stream.
  */
class StructuredStreamingRpqSpec extends StreamingJobSpec {

  /** The window content after `prefix`: the latest insertion of each edge not
    * deleted since, if its timestamp is above `minTs`.
    */
  private def windowEdges(prefix: Seq[Sgt], minTs: Long): Seq[BatchRpq.E] = {
    val stored = mutable.LinkedHashMap.empty[BatchRpq.E, Long]
    prefix.foreach { t =>
      val e = BatchRpq.E(t.src, t.dst, t.label)
      if (t.op == Op.Delete) stored.remove(e) else stored(e) = t.ts
    }
    stored.collect { case (e, ts) if ts > minTs => e }.toSeq
  }

  /** 72 tuples at timestamps 1..72 over 8 vertices; about 10% delete an edge
    * of the current window.
    */
  private def randomStream(labels: Seq[String], window: WindowSpec, seed: Long): Seq[Sgt] = {
    val rnd = new Random(seed)
    (1 to 72).foldLeft(Vector.empty[Sgt]) { (out, i) =>
      val ts = i.toLong
      val live = windowEdges(out, window.lowerBound(ts))
      out :+ (
        if (live.nonEmpty && rnd.nextDouble() < 0.1) {
          val e = live(rnd.nextInt(live.size))
          Sgt(ts, e.src, e.dst, e.label, Op.Delete)
        } else Sgt(ts, rnd.nextInt(8).toLong, rnd.nextInt(8).toLong, labels(rnd.nextInt(labels.size)))
      )
    }
  }

  test("a two-batch stream produces the joined result") {
    withJob(rapq("a b", WindowSpec(100, 10))) { job =>
      job.feed(Seq(Sgt(1, 1, 2, "a")), batchId = 0)
      job.processAllAvailable()
      assert(job.output.isEmpty)
      // a backslash, then u0061: written unescaped, a JSON reader reads the label as `a`
      job.feed(Seq(Sgt(2, 5, 2, "\\" + "u0061")), batchId = 1)
      job.feed(Seq(Sgt(3, 2, 3, "b")), batchId = 2)
      job.processAllAvailable()
      assert(job.output.asScala.toSet == Set((1L, 3L)))
    }
  }

  test("results accumulate over many micro-batches of a chain") {
    withJob(rapq("a+", WindowSpec(1000, 100))) { job =>
      (0 until 4).foreach { i =>
        job.feed(Seq(Sgt(i + 1L, i.toLong, i + 1L, "a")), batchId = i)
      }
      job.processAllAvailable()
      val expected = (for (i <- 0 to 3; j <- i + 1 to 4) yield (i.toLong, j.toLong)).toSet
      assert(job.output.asScala.toSet == expected)
    }
  }

  test("window expiry inside the streaming job") {
    withJob(rapq("a b", WindowSpec(10, 5))) { job =>
      job.feed(Seq(Sgt(1, 1, 2, "a"), Sgt(2, 2, 3, "b")), batchId = 0)
      job.processAllAvailable()
      job.feed(Seq(Sgt(50, 8, 9, "a")), batchId = 1)
      job.processAllAvailable()
      assert(job.currentResults().isEmpty)
      // the append-only output log keeps the earlier result (implicit windows)
      assert(job.output.asScala.toSet == Set((1L, 3L)))
    }
  }

  test("each batch logs only the pairs that became valid in it") {
    withJob(rapq("a+", WindowSpec(100, 10))) { job =>
      assert(step(job, Seq(Sgt(1, 1, 2, "a")), 0) == Set((1L, 2L)))
      assert(step(job, Seq(Sgt(2, 2, 3, "a")), 1) == Set((1L, 3L), (2L, 3L)))
      assert(step(job, Seq(Sgt(3, 2, 3, "a")), 2).isEmpty) // duplicate edge
    }
  }

  test("a b c fed across two batches") {
    withJob(rapq("a b c", WindowSpec(100, 10))) { job =>
      assert(step(job, Seq(Sgt(1, 1, 2, "a"), Sgt(2, 2, 3, "b")), 0).isEmpty)
      assert(step(job, Seq(Sgt(3, 3, 4, "c")), 1) == Set((1L, 4L)))
    }
  }

  private val window = WindowSpec(size = 25, slide = 5)

  private val randomized = Seq[(String, String, Long, Dfa => DeltaForest, (Seq[BatchRpq.E], Dfa) => Set[(Long, Long)])](
    ("RAPQ matches BatchRpq", "a b*", 41, new RapqEngine(_, window), BatchRpq.evaluate),
    ("RAPQ matches BatchRpq", "(a | b | c)+", 42, new RapqEngine(_, window), BatchRpq.evaluate),
    ("RAPQ matches BatchRpq", "(a b)+", 43, new RapqEngine(_, window), BatchRpq.evaluate),
    ("RSPQ matches BruteForceSimple", "a b*", 44, new RspqEngine(_, window), BruteForceSimple.evaluate),
    ("RSPQ matches BruteForceSimple", "(a | b)+", 45, new RspqEngine(_, window), BruteForceSimple.evaluate),
  )

  // random streams with deletions, checked after every micro-batch
  for ((check, p, seed, engine, oracle) <- randomized) {
    test(s"$check after every batch: $p") {
      val dfa = Dfa.fromPattern(p)
      val stream = randomStream(Seq("a", "b", "c"), window, seed)
      assert(stream.count(_.op == Op.Delete) >= 4)
      withJob(engine(dfa)) { job =>
        stream.grouped(12).zipWithIndex.foreach { case (batch, i) =>
          val before = job.currentResults()
          val logged = step(job, batch, i)
          val prefix = stream.take(12 * (i + 1))
          val expected = oracle(windowEdges(prefix, window.lowerBound(prefix.last.ts)), dfa)
          assert(job.currentResults() == expected, s"[$p] divergence after batch ending at ts=${batch.last.ts}")
          assert(logged == expected -- before, s"[$p] log of batch $i")
        }
      }
    }
  }

  test("LDBC-like stream matches SparkBatchRpq on the final window") {
    val dfa = Dfa.fromPattern("likes replyOf*")
    val stream = StreamGen.ldbcLike(nPersons = 40, nEdges = 300)
    val w = WindowSpec(size = 100, slide = 25)
    withJob(new RapqEngine(dfa, w)) { job =>
      stream.grouped(75).zipWithIndex.foreach { case (batch, i) => step(job, batch, i) }
      import spark.implicits._
      val edges = windowEdges(stream, w.lowerBound(stream.last.ts))
        .map(e => (e.src, e.dst, e.label)).toDF("src", "dst", "label")
      val expected = SparkBatchRpq.evaluate(edges, dfa).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
      assert(expected.nonEmpty)
      assert(job.currentResults() == expected)
    }
  }

  test("a rejected batch fails the query and logs nothing") {
    val budgetBlowUp = (
      new RspqEngine(Dfa.fromPattern("a+"), WindowSpec(100, 1000), stepBudgetPerTuple = 3),
      (10 to 15).map(d => Sgt(d.toLong, 2, d.toLong, "a")),
      Seq(Sgt(20, 1, 2, "a")),
      classOf[RspqBudgetExceeded],
    )
    val outOfOrder = (
      rapq("a+", WindowSpec(100, 10)),
      Seq(Sgt(10, 1, 2, "a")),
      Seq(Sgt(5, 2, 3, "a")),
      classOf[IllegalArgumentException],
    )
    for ((engine, accepted, rejected, cause) <- Seq(budgetBlowUp, outOfOrder)) {
      withJob(engine) { job =>
        assert(step(job, accepted, 0).nonEmpty)
        val logged = job.output.asScala.toList
        job.feed(rejected, batchId = 1)
        val e = intercept[StreamingQueryException](job.processAllAvailable())
        val chain = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toList
        assert(chain.exists(cause.isInstance), s"${cause.getSimpleName} not in ${chain.map(_.getClass.getSimpleName)}")
        assert(job.output.asScala.toList == logged)
      }
    }
  }
}
