package repro.spark

import java.nio.file.Files

import scala.jdk.CollectionConverters._

import org.apache.commons.io.FileUtils

import repro.SparkSpec
import repro.automaton.Dfa
import repro.core.{DeltaForest, RapqEngine}
import repro.stream.{Sgt, WindowSpec}

/** Base for the suites that run a [[StructuredStreamingRpq]] job. */
trait StreamingJobSpec extends SparkSpec {

  protected def withJob(engine: DeltaForest)(body: StructuredStreamingRpq => Unit): Unit = {
    val dir = Files.createTempDirectory("rpq-stream")
    val job = new StructuredStreamingRpq(spark, engine, dir)
    try {
      job.start()
      body(job)
    } finally try job.stop() finally FileUtils.deleteDirectory(dir.toFile)
  }

  protected def rapq(pattern: String, window: WindowSpec): RapqEngine =
    new RapqEngine(Dfa.fromPattern(pattern), window)

  /** Feed `batch` as micro-batch `batchId`, wait for it, and return the
    * result pairs it appended to the log.
    */
  protected def step(job: StructuredStreamingRpq, batch: Seq[Sgt], batchId: Int): Set[(Long, Long)] = {
    val logged = job.output.size
    job.feed(batch, batchId)
    job.processAllAvailable()
    job.output.asScala.drop(logged).toSet
  }
}
