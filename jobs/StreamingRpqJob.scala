package repro.jobs

import java.nio.file.Files

import org.apache.commons.io.FileUtils
import org.apache.spark.sql.SparkSession

import repro.automaton.Dfa
import repro.core.RapqEngine
import repro.data.StreamGen
import repro.spark.StructuredStreamingRpq
import repro.stream.WindowSpec

/** Persistent RPQ evaluation as a Structured Streaming job: feeds a synthetic
  * LDBC-like sgt stream in micro-batches to a [[RapqEngine]] on the driver,
  * printing per batch the tuples fed, the `foreachBatch` wall time, the new
  * log entries and the engine's emissions, trees, nodes and expiry runs.
  *
  * Usage: `StreamingRpqJob [pattern] [nEdges] [batchSize]`
  * (default: `likes replyOf*` over 2000 edges in batches of 200).
  */
object StreamingRpqJob {
  def main(args: Array[String]): Unit = {
    val pattern   = args.lift(0).getOrElse("likes replyOf*")
    val nEdges    = args.lift(1).map(_.toInt).getOrElse(2000)
    val batchSize = args.lift(2).map(_.toInt).getOrElse(200)

    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("streaming-rpq")
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.log.level", "WARN") // the per-batch lines are the output
      .getOrCreate()

    val dir = Files.createTempDirectory("rpq-stream")
    val window = WindowSpec(size = nEdges / 4, slide = math.max(1, nEdges / 40))
    val engine = new RapqEngine(Dfa.fromPattern(pattern), window, collectResults = false)
    val job = new StructuredStreamingRpq(spark, engine, dir)
    try {
      job.start()
      val stream = StreamGen.ldbcLike(nPersons = 500, nEdges = nEdges)
      stream.grouped(batchSize).zipWithIndex.foreach { case (batch, i) =>
        val logged = job.output.size
        job.feed(batch, i)
        job.processAllAvailable()
        println(f"batch $i: ${batch.size} sgts in ${job.lastBatchNanos / 1e6}%.1f ms, " +
          s"${job.output.size - logged} new log entries; emissions ${engine.emissionCount}, " +
          s"trees ${engine.numTrees}, nodes ${engine.numNodes}, expiry runs ${engine.expiryRuns}")
      }
    } finally try job.stop() finally FileUtils.deleteDirectory(dir.toFile)
    println(s"final result-log size: ${job.output.size}, window results: ${job.currentResults().size}")
    spark.stop()
  }
}
