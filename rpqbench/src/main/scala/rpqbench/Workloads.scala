package rpqbench

import scala.collection.mutable
import scala.util.Random

import org.json4s.JsonDSL._
import org.json4s.{JLong, JNull, JObject, JString}

import repro.automaton.{Dfa, Regex}
import repro.batch.BatchRpq.E
import repro.batch.{BatchRpq, BruteForceSimple}
import repro.data.{Queries, StreamGen}
import repro.stream.{Op, Sgt, WindowSpec}

/** One benchmark workload: a generated stream, one query and one window.
  *
  * A pass replays the whole stream into a fresh engine. The first window
  * (`ts - ts0 < |W|`) is the fill; everything after it is the timed segment.
  */
final case class Workload(
    name: String,
    dataset: String,
    query: String,
    simple: Boolean,
    entities: Int,
    tuples: Int,
    window: WindowSpec,
    deleteRatio: Double = 0.0,
) {
  def pattern: String = Queries.forDataset(dataset).find(_.name == query).get.pattern

  /** Generator seed of pass `pass` in measuring JVM `jvm` of a run. */
  def streamSeed(seed: Long, jvm: Int, pass: Int): Long = seed * 1000003L + jvm * 1000L + pass

  def generate(streamSeed: Long): Vector[Sgt] = {
    val base = dataset match {
      case "so"   => StreamGen.soLike(entities, tuples, streamSeed)
      case "yago" => StreamGen.yagoLike(entities, tuples, streamSeed)
    }
    if (deleteRatio > 0) Workloads.withInWindowDeletions(base, deleteRatio, window.size, streamSeed * 31 + 17)
    else base
  }

  /** Generator parameters, for the report. */
  def describe: JObject =
    ("dataset" -> dataset) ~
    ("generator_entities" -> entities) ~
    ("generator_tuples" -> tuples) ~
    ("stream_seed" -> "seed * 1000003 + jvm * 1000 + pass") ~
    ("delete_ratio" -> deleteRatio) ~
    ("deletion_seed" -> (if (deleteRatio > 0) JString("stream_seed * 31 + 17") else JNull)) ~
    ("window_size" -> window.size) ~
    ("window_slide" -> window.slide) ~
    ("query" -> query) ~
    ("pattern" -> pattern) ~
    ("semantics" -> (if (simple) "simple (RSPQ)" else "arbitrary (RAPQ)")) ~
    ("rspq_step_budget" -> (if (simple) JLong(Workloads.RspqStepBudget) else JNull))

  /** Number of leading tuples that make up the first window. */
  def fillCount(stream: Array[Sgt]): Int = {
    val ts0 = stream.head.ts
    val i = stream.indexWhere(_.ts - ts0 >= window.size)
    if (i < 0) stream.length else i
  }

  /** Final-window answer computed from the stream alone, independently of
    * the engine: RAPQ by `BatchRpq`, RSPQ by `BruteForceSimple`.
    */
  def oracle(stream: Seq[Sgt]): Set[(Long, Long)] = {
    val dfa = Dfa.fromRegex(Regex.parse(pattern))
    val edges = Workloads.windowEdges(stream, stream.last.ts, window.size)
    if (simple) BruteForceSimple.evaluate(edges, dfa) else BatchRpq.evaluate(edges, dfa)
  }
}

object Workloads {

  // Why each workload exists is recorded in BENCHMARK.json and README.md.
  val all: Seq[Workload] = Seq(
    Workload("so-insert", "so", "Q2", simple = false, entities = 800, tuples = 10000,
      window = WindowSpec(size = 2000, slide = 60)),
    Workload("yago-delete", "yago", "Q9", simple = false, entities = 1200, tuples = 24000,
      window = WindowSpec(size = 3000, slide = 300), deleteRatio = 0.10),
    Workload("so-simple", "so", "Q11", simple = true, entities = 600, tuples = 6000,
      window = WindowSpec(size = 1500, slide = 50)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))

  /** Per-tuple budget of Extend steps for RSPQ; a tuple that exceeds it fails. */
  val RspqStepBudget: Long = 5_000_000L

  /** Mix negative tuples into an append-only stream. After each insert, with
    * probability `ratio`, one edge that is live in the current window is
    * deleted: it was inserted within the last `window` time units and has not
    * been deleted since. Each negative tuple takes the next time unit, and the
    * rest of the stream shifts by one, as in `StreamGen.withDeletions`.
    */
  def withInWindowDeletions(stream: Vector[Sgt], ratio: Double, window: Long, seed: Long): Vector[Sgt] = {
    type K = (Long, Long, String)
    val rnd = new Random(seed)
    val liveTs = mutable.HashMap.empty[K, Long]      // live edge -> freshest ts
    val live = mutable.ArrayBuffer.empty[K]          // same edges, indexable
    val slot = mutable.HashMap.empty[K, Int]         // edge -> index in `live`
    val arrivals = mutable.Queue.empty[(K, Long)]
    def drop(k: K): Unit = {
      val i = slot.remove(k).get
      val last = live.remove(live.length - 1)
      if (i < live.length) { live(i) = last; slot(last) = i }
      liveTs.remove(k)
    }
    val out = Vector.newBuilder[Sgt]
    var ts = 0L
    stream.foreach { t =>
      ts = math.max(ts + 1, t.ts)
      out += t.copy(ts = ts)
      val k = (t.src, t.dst, t.label)
      if (!slot.contains(k)) { slot(k) = live.length; live += k }
      liveTs(k) = ts
      arrivals.enqueue((k, ts))
      if (rnd.nextDouble() < ratio) {
        ts += 1
        while (arrivals.nonEmpty && arrivals.head._2 <= ts - window) {
          val (old, oldTs) = arrivals.dequeue()
          if (liveTs.get(old).contains(oldTs)) drop(old)
        }
        if (live.nonEmpty) {
          val victim = live(rnd.nextInt(live.length))
          drop(victim)
          out += Sgt(ts, victim._1, victim._2, victim._3, Op.Delete)
        }
      }
    }
    out.result()
  }

  /** Edges of the window ending at `endTs`, replayed from the stream: an
    * insert stores or refreshes an edge, a delete removes it, and only edges
    * whose freshest timestamp is after `endTs - window` remain.
    */
  def windowEdges(stream: Seq[Sgt], endTs: Long, window: Long): Seq[E] = {
    val latest = mutable.HashMap.empty[(Long, Long, String), Long]
    stream.foreach { t =>
      val k = (t.src, t.dst, t.label)
      t.op match {
        case Op.Insert => latest(k) = math.max(latest.getOrElse(k, Long.MinValue), t.ts)
        case Op.Delete => latest.remove(k)
      }
    }
    latest.iterator.collect { case ((s, d, l), ts) if ts > endTs - window => E(s, d, l) }.toVector
  }
}
