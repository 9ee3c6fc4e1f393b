package repro.spark

import java.nio.file.{Files, Path}

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.streaming.{StreamingQuery, Trigger}
import org.apache.spark.sql.types._
import org.json4s.JsonDSL._
import org.json4s.jackson.JsonMethods.{compact, render}

import repro.automaton.Dfa
import repro.stream.{Op, Sgt, WindowSpec}

/** Persistent RPQ evaluation as a Structured Streaming job (the repro-band
  * deployment shape): a file-source stream of sgts is consumed micro-batch by
  * micro-batch through `foreachBatch`, each batch feeding the incremental
  * maintainer [[SparkIncrementalRpq]]; newly discovered result pairs are
  * appended to the in-memory output log (the paper's append-only result
  * stream under implicit window semantics).
  *
  * The source directory is watched for JSON part files, so a driver (job or
  * test) "streams" by dropping files in — pure public Spark API, no reliance
  * on internals.
  */
final class StructuredStreamingRpq(
    spark: SparkSession,
    dfa: Dfa,
    window: WindowSpec,
    sourceDir: Path,
) {
  private val maintainer = new SparkIncrementalRpq(spark, dfa, window)

  /** Append-only output log of result pairs, in arrival order. */
  val output = new java.util.concurrent.ConcurrentLinkedQueue[(Long, Long)]()

  private val schema = StructType(Seq(
    StructField("ts", LongType), StructField("src", LongType),
    StructField("dst", LongType), StructField("label", StringType),
  ))

  private var query: StreamingQuery = null

  /** Start the streaming query (processing-time trigger). */
  def start(): StreamingQuery = {
    val stream = spark.readStream.schema(schema).json(sourceDir.toString)
    query = stream.writeStream
      .trigger(Trigger.ProcessingTime("200 milliseconds"))
      .outputMode("update")
      .foreachBatch { (batch: DataFrame, _: Long) =>
        val fresh = maintainer.processBatch(batch.select("src", "dst", "label", "ts"))
        fresh.collect().foreach(r => output.add((r.getLong(0), r.getLong(1))))
        ()
      }
      .start()
    query
  }

  /** Write one micro-batch of sgts as a JSON part file into the source dir.
    * Throws an `IllegalArgumentException`, writing nothing, if the batch holds
    * an explicit deletion: [[SparkIncrementalRpq]] does not support them.
    */
  def feed(sgts: Seq[Sgt], batchId: Int): Unit = {
    require(!sgts.exists(_.op == Op.Delete), "StructuredStreamingRpq does not support explicit deletions")
    val json = sgts.map { t =>
      compact(render(("ts" -> t.ts) ~ ("src" -> t.src) ~ ("dst" -> t.dst) ~ ("label" -> t.label)))
    }.mkString("\n")
    val tmp = Files.createTempFile(sourceDir, "batch", ".json.tmp")
    Files.writeString(tmp, json)
    Files.move(tmp, sourceDir.resolve(f"batch-$batchId%05d.json"))
  }

  /** Block until everything fed so far has been processed. */
  def processAllAvailable(): Unit = query.processAllAvailable()

  def stop(): Unit = if (query != null) query.stop()

  /** Current explicit-window results from the maintainer, for assertions. */
  def currentResults(): DataFrame = maintainer.currentResults()
}
