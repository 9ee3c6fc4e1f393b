package rpqbench

import java.lang.management.ManagementFactory

import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.json4s.JsonDSL._
import org.json4s.jackson.JsonMethods.{compact, render}
import org.json4s.JObject

import repro.automaton.{Containment, Dfa, Regex}
import repro.core.RspqBudgetExceeded
import repro.stream.{Op, Sgt, SnapshotGraph}

/** Measurements of one pass: a fresh engine fed the whole stream. */
final class Pass(val streamSeed: Long, val traced: Boolean) {
  import Pass._

  var timedTuples = 0
  var wallNs = 0L
  val hostWalks = new Samples(64)
  val arrivals = new Samples(1 << 12)
  val slides = new Samples(64)
  var slidesTimed = 0
  var nodesAtSlides = 0L
  var attempted = 0
  var failed = 0
  var budgetExceeded = 0
  var gcNs = 0L
  var gcCount = 0L
  var heapBase = 0L
  var heapBytes = 0L
  var identityOk = true
  var edgesOk = true
  var mismatches = -1

  // traced passes only
  val kindNs = new Array[Long](Kinds)
  val kindCount = new Array[Int](Kinds)
  val deletes = new Samples(64)
  var deletesEffective = 0
  var expiryNs = 0L
  var nodesScanned = 0L
  var nodesNetRemoved = 0L
  var treesAtSlides = 0L
  var conflicts = 0L

  private def perSlide(x: Long): Double = x.toDouble / math.max(1, slidesTimed)

  def toJson: JObject = {
    val base =
      ("stream_seed" -> streamSeed) ~
      ("traced" -> traced) ~
      ("timed_tuples" -> timedTuples) ~
      ("wall_ns" -> wallNs) ~
      ("host_walk_ns" -> hostWalks.toSeq) ~
      ("slides" -> slidesTimed) ~
      ("nodes_per_slide" -> perSlide(nodesAtSlides)) ~
      ("heap_bytes" -> heapBytes) ~
      ("gc_ns" -> gcNs) ~
      ("gc_count" -> gcCount) ~
      ("arrival_ns" -> arrivals.toSeq) ~
      ("slide_ns" -> slides.toSeq)
    if (!traced) base else base ~
      ("arrival_total_ns" -> kindNs(Arrival)) ~
      ("filtered_total_ns" -> kindNs(Filtered)) ~
      ("slide_total_ns" -> kindNs(Slide)) ~
      ("delete_total_ns" -> kindNs(Delete)) ~
      ("deletes" -> kindCount(Delete)) ~
      ("deletes_effective" -> deletesEffective) ~
      ("delete_ns" -> deletes.toSeq) ~
      ("expiry_ns" -> expiryNs) ~
      ("nodes_scanned_per_slide" -> perSlide(nodesScanned)) ~
      ("nodes_net_removed_per_slide" -> perSlide(nodesNetRemoved)) ~
      ("trees_per_slide" -> perSlide(treesAtSlides)) ~
      ("conflicts" -> conflicts) ~
      ("budget_exceeded" -> budgetExceeded)
  }
}

object Pass {
  val Arrival = 0
  val Filtered = 1
  val Slide = 2
  val Delete = 3
  val Kinds = 4
}

/** Benchmark entry point. One JVM runs one workload,
  * `run <workload> <seed> <jvm> <seconds> <trace 0|1> <deadline-seconds>`: a
  * cold set-up, one warm-up pass, then timed passes for `seconds`, each checked
  * against its stream's final-window oracle. It prints the raw per-pass
  * measurements as one JSON line for `run.py` to aggregate.
  *
  * Every pass replays its own stream: pass `j` of JVM `jvm` uses generator
  * seed `Workload.streamSeed(seed, jvm, j)`, so a run's medians average
  * over many streams rather than depend on one.
  *
  * The loop is closed: the next tuple goes in only after `processTuple`
  * returns. Tracing only adds timers and counter reads around the same calls.
  */
object Main {
  import Pass._

  private val MinTimedPasses = 2

  private def elapsedS(since: Long): Double = (System.nanoTime() - since) / 1e9

  def main(args: Array[String]): Unit = args match {
    case Array("run", name, seed, jvm, seconds, trace, deadline) =>
      println(compact(render(
        run(Workloads.byName(name), seed.toLong, jvm.toInt, seconds.toDouble, trace == "1", deadline.toDouble))))
    case _ =>
      System.err.println("usage: run <workload> <seed> <jvm> <seconds> <trace 0|1> <deadline-seconds>")
      sys.exit(2)
  }

  /** Timed: query registration (parse, DFA; `Containment` inside the RSPQ
    * engine), engine construction and the first-window fill.
    */
  final case class Setup(engine: Engine, dfa: Dfa, clock: SlideClock, pass: Pass,
                         setupNs: Long, compileNs: Long, containmentNs: Long)

  /** The cold set-up of a fresh JVM. Its engine finishes the first warm-up pass. */
  private def coldSetup(w: Workload, input: Input, timeContainment: Boolean): Setup = {
    val t0 = System.nanoTime()
    val dfa = Dfa.fromRegex(Regex.parse(w.pattern))
    val compileNs = System.nanoTime() - t0
    // Traced runs time Containment on its own, outside the set-up time.
    val containmentNs =
      if (timeContainment && w.simple) { val c0 = System.nanoTime(); Containment(dfa); System.nanoTime() - c0 }
      else 0L
    val t1 = System.nanoTime()
    val engine = Engine(w, dfa, collectResults = false)
    val clock = new SlideClock(w.window.slide)
    val pass = new Pass(input.streamSeed, traced = false)
    feedFill(w, engine, clock, input.stream, input.fill, dfa.alphabet, pass)
    val setupNs = compileNs + (System.nanoTime() - t1)
    Setup(engine, dfa, clock, pass, setupNs, compileNs, containmentNs)
  }

  /** Feeds one tuple and returns how long its `processTuple` call took.
    *
    * On RAPQ it also checks the expiry counter per tuple, from outside: the
    * call runs ExpiryRAPQ once if it crosses a slide boundary (`slide`), and
    * a delete runs it at most once more, only for a stored in-alphabet edge
    * that survives the slide's prune (Algorithm Delete expires the trees
    * that lost a tree edge). Any other count clears `pass.identityOk`.
    */
  private def feed(w: Workload, engine: Engine, t: Sgt, slide: Boolean, inAlphabet: Boolean, pass: Pass): Long = {
    pass.attempted += 1
    val runs0 = engine.expiryRuns
    val mayDelete = t.op == Op.Delete && inAlphabet &&
      engine.graph.timestamp(t.src, t.dst, t.label).exists(ts => !slide || ts > w.window.lowerBound(t.ts))
    val t0 = System.nanoTime()
    val ok =
      try { engine.process(t); true }
      catch {
        case _: RspqBudgetExceeded => pass.failed += 1; pass.budgetExceeded += 1; false
        case NonFatal(_)           => pass.failed += 1; false
      }
    val dt = System.nanoTime() - t0
    if (ok && !w.simple) {
      val runs = engine.expiryRuns - runs0
      val base = if (slide) 1 else 0
      if (runs != base && !(mayDelete && runs == base + 1)) pass.identityOk = false
    }
    dt
  }

  private def feedFill(w: Workload, engine: Engine, clock: SlideClock, stream: Array[Sgt], fill: Int,
                       alphabet: Set[String], pass: Pass): Unit = {
    var i = 0
    while (i < fill) {
      val t = stream(i)
      feed(w, engine, t, clock.tick(t.ts), alphabet.contains(t.label), pass)
      i += 1
    }
  }

  private def gcTotals: (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionTime).sum * 1000000L, beans.map(_.getCollectionCount).sum)
  }

  /** The timed segment: every tuple after the fill, each `processTuple`
    * timed on its own. The `numNodes` sample and the `HostSpeed` walk after a
    * slide are left out of the wall time.
    */
  private def timedSegment(w: Workload, engine: Engine, clock: SlideClock, stream: Array[Sgt],
                           fill: Int, alphabet: Set[String], pass: Pass): Unit = {
    val traced = pass.traced
    val (gcNs0, gcCount0) = gcTotals
    val expiry0 = engine.expiryNanos
    val conflicts0 = engine.conflicts
    var excluded = 0L
    var nodesBefore = 0L
    var present = false
    var i = fill
    val start = System.nanoTime()
    while (i < stream.length) {
      val t = stream(i)
      val slide = clock.tick(t.ts)
      val inAlphabet = alphabet.contains(t.label)
      if (traced) {
        if (slide) nodesBefore = engine.numNodes
        if (t.op == Op.Delete)
          present = engine.graph.timestamp(t.src, t.dst, t.label).exists(_ > w.window.lowerBound(t.ts))
      }
      val dt = feed(w, engine, t, slide, inAlphabet, pass)
      if (slide) {
        pass.slides.add(dt)
        val s0 = System.nanoTime()
        val nodes = engine.numNodes
        pass.nodesAtSlides += nodes
        pass.slidesTimed += 1
        pass.hostWalks.add(HostSpeed.walk())
        if (traced) {
          pass.nodesScanned += nodesBefore
          pass.nodesNetRemoved += nodesBefore - nodes
          pass.treesAtSlides += engine.numTrees
        }
        excluded += System.nanoTime() - s0
      } else if (inAlphabet) pass.arrivals.add(dt)
      if (traced) {
        val kind =
          if (slide) Slide else if (t.op == Op.Delete) Delete else if (inAlphabet) Arrival else Filtered
        pass.kindNs(kind) += dt
        pass.kindCount(kind) += 1
        if (kind == Delete) { pass.deletes.add(dt); if (present) pass.deletesEffective += 1 }
      }
      i += 1
    }
    pass.wallNs = System.nanoTime() - start - excluded
    pass.timedTuples = stream.length - fill
    val (gcNs1, gcCount1) = gcTotals
    pass.gcNs = gcNs1 - gcNs0
    pass.gcCount = gcCount1 - gcCount0
    pass.expiryNs = engine.expiryNanos - expiry0
    pass.conflicts = engine.conflicts - conflicts0
  }

  /** After the timed segment: live heap, and the final window against the
    * oracle.
    */
  private def check(engine: Engine, input: Input, pass: Pass): Unit = {
    pass.heapBytes = liveHeap() - pass.heapBase
    java.lang.ref.Reference.reachabilityFence(engine)
    val lastTs = input.stream.last.ts
    engine.forceExpiry(lastTs)
    val got = engine.currentResults(lastTs)
    pass.mismatches = (got -- input.expected).size + (input.expected -- got).size
    pass.edgesOk = engine.graph.numEdges == input.windowEdges
  }

  /** Used heap after a full collection. */
  private def liveHeap(): Long = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  /** Fixed CPU and memory loops; they show hardware speed drift between runs. */
  private def calibrate(): (Double, Double) = {
    val c0 = System.nanoTime()
    var x = 88172645463325252L
    var i = 0
    while (i < 40000000) { x ^= x << 13; x ^= x >>> 7; x ^= x << 17; i += 1 }
    val cpuMs = (System.nanoTime() - c0) / 1e6
    val arr = new Array[Int](1 << 24)
    val m0 = System.nanoTime()
    var idx = 0
    var sum = x.toInt
    i = 0
    while (i < 8000000) { idx = (idx * 1103515245 + 12345) & ((1 << 24) - 1); sum += arr(idx); arr(idx) = sum; i += 1 }
    val memMs = (System.nanoTime() - m0) / 1e6
    if (sum == 42) println() // keeps the loops live
    (cpuMs, memMs)
  }

  /** The window graph alone: the same add/remove calls and the same prunes
    * at the same boundaries as inside the engine, each call timed.
    */
  private def shadowReplay(w: Workload, stream: Array[Sgt], fill: Int): JObject = {
    val g = new SnapshotGraph
    val clock = new SlideClock(w.window.slide)
    var addNs, removeNs, pruneNs, scanned, removed, edgesAtSlides = 0L
    var adds, removes, prunes = 0
    var i = 0
    while (i < stream.length) {
      val t = stream(i)
      val timed = i >= fill
      val slide = clock.tick(t.ts)
      if (slide) {
        val before = g.numEdges
        val p0 = System.nanoTime()
        val r = g.pruneExpired(w.window.lowerBound(t.ts))
        if (timed) { pruneNs += System.nanoTime() - p0; scanned += before; removed += r; prunes += 1 }
      }
      val t0 = System.nanoTime()
      t.op match {
        case Op.Insert => g.add(t.src, t.dst, t.label, t.ts)
        case Op.Delete => g.remove(t.src, t.dst, t.label)
      }
      val dt = System.nanoTime() - t0
      if (timed) {
        if (t.op == Op.Insert) { addNs += dt; adds += 1 } else { removeNs += dt; removes += 1 }
        if (slide) edgesAtSlides += g.numEdges
      }
      i += 1
    }
    def per(x: Long, n: Int): Double = if (n == 0) 0.0 else x.toDouble / n
    ("add_ns" -> per(addNs, adds)) ~
      ("remove_ns" -> per(removeNs, removes)) ~
      ("prune_ms" -> pruneNs / 1e6) ~
      ("prune_scanned" -> per(scanned, prunes)) ~
      ("prune_removed" -> per(removed, prunes)) ~
      ("prune_useful_ratio" -> (if (scanned == 0) 0.0 else removed.toDouble / scanned)) ~
      ("window_edges" -> per(edgesAtSlides, prunes))
  }

  /** One generated stream and, computed on first use, its final-window
    * oracle answer and window edge count.
    */
  final class Input(w: Workload, val streamSeed: Long) {
    private val g0 = System.nanoTime()
    val stream: Array[Sgt] = w.generate(streamSeed).toArray
    val genNs: Long = System.nanoTime() - g0
    val fill: Int = w.fillCount(stream)
    var oracleNs = 0L
    lazy val (expected: Set[(Long, Long)], windowEdges: Int) = {
      val o0 = System.nanoTime()
      val edges = Workloads.windowEdges(stream.toSeq, stream.last.ts, w.window.size).size
      val answer = w.oracle(stream.toSeq)
      oracleNs = System.nanoTime() - o0
      (answer, edges)
    }
  }

  def run(w: Workload, seed: Long, jvm: Int, seconds: Double, trace: Boolean, deadline: Double): JObject = {
    val jvm0 = System.nanoTime()
    val inputs = Vector.newBuilder[Input]
    def input(j: Int): Input = { val in = new Input(w, w.streamSeed(seed, jvm, j)); inputs += in; in }

    val first = input(0)
    val setup = coldSetup(w, first, timeContainment = trace)

    def onePass(in: Input, traced: Boolean): Pass = {
      in.expected // the oracle runs before the pass, outside its timing
      val pass = new Pass(in.streamSeed, traced)
      pass.heapBase = liveHeap()
      val engine = Engine(w, setup.dfa, collectResults = false)
      val clock = new SlideClock(w.window.slide)
      feedFill(w, engine, clock, in.stream, in.fill, setup.dfa.alphabet, pass)
      timedSegment(w, engine, clock, in.stream, in.fill, setup.dfa.alphabet, pass)
      check(engine, in, pass)
      pass
    }

    // Warm-up: the set-up engine finishes the first stream, untimed.
    first.expected
    timedSegment(w, setup.engine, setup.clock, first.stream, first.fill, setup.dfa.alphabet, setup.pass)
    check(setup.engine, first, setup.pass)
    HostSpeed.warmUp()

    // Traced runs alternate untraced and traced passes. Past the deadline the
    // run stops early rather than overrun; the report records the pass count.
    val minPasses = if (trace) 2 * MinTimedPasses else MinTimedPasses
    val timed = Vector.newBuilder[Pass]
    var n = 0
    val loop0 = System.nanoTime()
    while ((n < minPasses || elapsedS(loop0) < seconds) && !(n >= 2 && elapsedS(jvm0) > deadline)) {
      timed += onePass(input(1 + n), traced = trace && n % 2 == 1)
      n += 1
    }
    val measuredS = elapsedS(loop0)
    val used = inputs.result()

    val tracedExtras: JObject = if (!trace) JObject() else {
      // One untimed pass that keeps the distinct result set.
      val collector = Engine(w, setup.dfa, collectResults = true)
      feedFill(w, collector, new SlideClock(w.window.slide), first.stream, first.stream.length, setup.dfa.alphabet,
        new Pass(first.streamSeed, traced = false))
      val (calibCpuMs, calibMemMs) = calibrate()
      ("compile_ms" -> setup.compileNs / 1e6) ~
        ("containment_ms" -> setup.containmentNs / 1e6) ~
        ("dfa_states" -> setup.dfa.k) ~
        ("gen_ms" -> used.map(_.genNs / 1e6)) ~
        ("oracle_ms" -> used.map(_.oracleNs / 1e6)) ~
        ("calib_cpu_ms" -> calibCpuMs) ~
        ("calib_mem_ms" -> calibMemMs) ~
        ("emissions_per_result" -> collector.emissions.toDouble / math.max(1, collector.distinctResults)) ~
        ("shadow" -> used.take(3).map(in => shadowReplay(w, in.stream, in.fill)))
    }

    val passes = timed.result()
    val all = setup.pass +: passes
    ("inputs" -> w.describe) ~
      ("setup_s" -> setup.setupNs / 1e9) ~
      ("attempted" -> passes.map(_.attempted).sum) ~
      ("failed" -> passes.map(_.failed).sum) ~
      ("stream_lengths" -> used.map(_.stream.length)) ~
      ("warmup_passes" -> 1) ~
      ("min_timed_passes" -> MinTimedPasses) ~
      ("measured_seconds" -> measuredS) ~
      ("oracle_pairs" -> used.map(_.expected.size)) ~
      ("mismatched_pairs" -> all.map(_.mismatches).sum) ~
      ("passes_checked" -> all.size) ~
      ("expiry_runs_identity" -> all.forall(_.identityOk)) ~
      ("window_edges_match" -> all.forall(_.edgesOk)) ~
      ("passes" -> passes.map(_.toJson)) ~
      tracedExtras
  }
}
