package repro.spark

import java.nio.file.{Files, Path}

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.streaming.StreamingQuery
import org.apache.spark.sql.types._
import org.json4s.JsonDSL._
import org.json4s.jackson.JsonMethods.{compact, render}

import repro.core.DeltaForest
import repro.stream.{Op, Sgt}

/** Persistent RPQ evaluation as a Structured Streaming job: Spark ingests a
  * directory of JSON part files and cuts it into micro-batches, and the
  * paper's engine, a [[repro.core.RapqEngine]] or [[repro.core.RspqEngine]],
  * runs on the driver. Each batch is fed to the engine in stream order and
  * closed by an expiry pass at its highest timestamp; the pairs that became
  * valid in it are appended to the output log (the paper's append-only result
  * stream under implicit window semantics). A tuple the engine rejects (an
  * out-of-order timestamp, a blown RSPQ budget) fails the query, and its batch
  * logs nothing. Only the query's thread touches the engine while it runs.
  */
final class StructuredStreamingRpq(spark: SparkSession, engine: DeltaForest, sourceDir: Path) {

  /** Append-only output log of result pairs, in arrival order. */
  val output = new java.util.concurrent.ConcurrentLinkedQueue[(Long, Long)]()

  /** Wall time of the last non-empty batch's `foreachBatch` body, in ns. */
  @volatile var lastBatchNanos: Long = 0L

  // The file source does not keep row order, so each line carries its
  // position in the stream; same-timestamp inserts and deletes depend on it.
  private val schema = StructType(Seq(
    StructField("seq", LongType), StructField("ts", LongType),
    StructField("src", LongType), StructField("dst", LongType),
    StructField("label", StringType), StructField("op", StringType),
  ))

  private var query: StreamingQuery = null
  private var nextSeq = 0L
  @volatile private var results = Set.empty[(Long, Long)]

  /** Start the streaming query. Spark's default trigger starts each batch as
    * soon as the previous one ends and new files have arrived; a fixed
    * processing-time interval shorter than a batch would only log, on every
    * batch, that the query is falling behind.
    */
  def start(): StreamingQuery = {
    val stream = spark.readStream.schema(schema).json(sourceDir.toString)
    query = stream.writeStream
      .outputMode("update")
      .foreachBatch { (batch: DataFrame, _: Long) =>
        val t0 = System.nanoTime()
        val sgts = batch.select("seq", "ts", "src", "dst", "label", "op").collect()
          .sortBy(_.getLong(0))
          .map(r => Sgt(r.getLong(1), r.getLong(2), r.getLong(3), r.getString(4),
                        if (r.getString(5) == "-") Op.Delete else Op.Insert))
        if (sgts.nonEmpty) {
          sgts.foreach(engine.processTuple)
          val maxTs = sgts.last.ts
          engine.forceExpiry(maxTs)
          val now = engine.currentResults(maxTs)
          (now -- results).toSeq.sorted.foreach(output.add)
          results = now
          lastBatchNanos = System.nanoTime() - t0
        }
      }
      .start()
    query
  }

  /** Write one micro-batch of sgts as a JSON part file into the source dir. */
  def feed(sgts: Seq[Sgt], batchId: Int): Unit = {
    val json = sgts.map { t =>
      nextSeq += 1
      compact(render(("seq" -> nextSeq) ~ ("ts" -> t.ts) ~ ("src" -> t.src) ~ ("dst" -> t.dst) ~
        ("label" -> t.label) ~ ("op" -> (if (t.op == Op.Delete) "-" else "+"))))
    }.mkString("\n")
    // hidden while written: the file source skips names starting with `.`
    val tmp = Files.createTempFile(sourceDir, ".batch", ".tmp")
    Files.writeString(tmp, json)
    Files.move(tmp, sourceDir.resolve(f"batch-$batchId%05d.json"))
  }

  /** Block until everything fed so far has been processed. */
  def processAllAvailable(): Unit = query.processAllAvailable()

  def stop(): Unit = if (query != null) query.stop()

  /** The window's result pairs as of the last batch's highest timestamp. */
  def currentResults(): Set[(Long, Long)] = results
}
