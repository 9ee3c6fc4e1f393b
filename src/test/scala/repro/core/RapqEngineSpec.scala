package repro.core

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.Dfa
import repro.batch.{BatchRpq, BruteForceSimple, PersistentBatchBaseline}
import repro.data.{Queries, StreamGen}
import repro.stream.{Op, Sgt, WindowSpec}

/** Randomized cross-checks of Algorithm RAPQ against the batch evaluator on
  * every window snapshot — the monotone result-stream semantics of
  * Definition 9.
  */
class RapqEngineSpec extends AnyFunSuite {

  private val patterns = Seq(
    "a*", "a b*", "a b* c*", "(a | b | c)*", "a b* c", "a* b*",
    "a b c*", "a? b*", "(a | b | c)+", "(a | b | c) b*", "a b c",
    "(a b)+",
  )

  private def randomStream(n: Int, nV: Int, labels: Seq[String], seed: Long): Seq[Sgt] = {
    val rnd = new Random(seed)
    (1 to n).map { i =>
      Sgt(i.toLong, rnd.nextInt(nV).toLong, rnd.nextInt(nV).toLong,
          labels(rnd.nextInt(labels.length)))
    }
  }

  for (p <- patterns) {
    test(s"[$p] emitted stream equals the union of snapshot results over time") {
      val dfa = Dfa.fromPattern(p)
      val w = WindowSpec(size = 35, slide = 7)
      val engine = new RapqEngine(dfa, w)
      val stream = randomStream(140, nV = 10, Seq("a", "b", "c"), seed = p.hashCode)
      var expectedUnion = Set.empty[(Long, Long)]
      stream.foreach { t =>
        engine.processTuple(t)
        val snapshotResult = BatchRpq.evaluateWindow(engine.graph, w.lowerBound(t.ts), dfa)
        expectedUnion ++= snapshotResult
        // completeness, eagerly: every current snapshot result already emitted
        assert(snapshotResult.subsetOf(engine.results.toSet),
          s"missing results at ts=${t.ts}: ${snapshotResult -- engine.results.toSet}")
      }
      // soundness: nothing emitted beyond what some snapshot justified
      assert(engine.results.toSet == expectedUnion)
    }
  }

  for (p <- Seq("a b*", "(a | b | c)+", "(a b)+")) {
    test(s"[$p] explicit-window view matches batch after forced expiry at checkpoints") {
      val dfa = Dfa.fromPattern(p)
      val w = WindowSpec(size = 28, slide = 9)
      val engine = new RapqEngine(dfa, w)
      val stream = randomStream(160, nV = 9, Seq("a", "b", "c"), seed = 31 + p.length)
      stream.zipWithIndex.foreach { case (t, i) =>
        engine.processTuple(t)
        if (i % 13 == 0) {
          engine.forceExpiry(t.ts)
          val expected = BatchRpq.evaluateWindow(engine.graph, w.lowerBound(t.ts), dfa)
          assert(engine.currentResults(t.ts) == expected, s"divergence at ts=${t.ts}")
        }
      }
    }
  }

  test("duplicate edges refresh freshness without breaking invariants") {
    val dfa = Dfa.fromPattern("a b")
    val w = WindowSpec(size = 10, slide = 10000)
    val e = new RapqEngine(dfa, w)
    e.processTuple(Sgt(1, 0, 1, "a"))
    e.processTuple(Sgt(2, 1, 2, "b"))
    assert(e.results.toSet == Set((0L, 2L)))
    // both edges re-arrive much later — result must be rediscoverable
    e.processTuple(Sgt(40, 0, 1, "a"))
    e.processTuple(Sgt(41, 1, 2, "b"))
    e.forceExpiry(45)
    assert(e.currentResults(45) == Set((0L, 2L)))
  }

  test("non-alphabet labels are discarded cheaply") {
    val dfa = Dfa.fromPattern("a b")
    val e = new RapqEngine(dfa, WindowSpec(100, 10000))
    (1 to 50).foreach(i => e.processTuple(Sgt(i.toLong, i.toLong, i + 1L, "zzz")))
    assert(e.numTrees == 0)
    assert(e.numNodes == 0)
    assert(e.graph.numEdges == 50) // still tracked in the window content
  }

  test("labels no query can name pass through insert and Delete on both engines") {
    // empty, spaced, regex-looking and non-ASCII labels, mixed with the
    // query's; both queries have the containment property, so RSPQ is exact
    val labels = Seq("a", "b", "c", "", "a b", "a|b", "x*", "\u00fc")
    val w = WindowSpec(60, 10)
    for (p <- Seq("a b c", "(a | b | c)*"); rapq <- Seq(true, false)) {
      val dfa = Dfa.fromPattern(p)
      val e = if (rapq) new RapqEngine(dfa, w) else new RspqEngine(dfa, w)
      val rnd = new Random(71 + p.length)
      val live = scala.collection.mutable.ArrayBuffer.empty[Sgt]
      (1 to 240).foreach { i =>
        val ts = i.toLong
        if (live.nonEmpty && rnd.nextDouble() < 0.2) {
          val d = live.remove(rnd.nextInt(live.length))
          e.processTuple(Sgt(ts, d.src, d.dst, d.label, Op.Delete))
        } else {
          val t = Sgt(ts, rnd.nextInt(7).toLong, rnd.nextInt(7).toLong, labels(rnd.nextInt(labels.length)))
          live += t
          e.processTuple(t)
        }
        if (i % 40 == 0) {
          e.forceExpiry(ts)
          val edges = e.graph.edges.filter(_.ts > w.lowerBound(ts)).map(x => BatchRpq.E(x.src, x.dst, x.label)).toSeq
          val expected = if (rapq) BatchRpq.evaluate(edges, dfa) else BruteForceSimple.evaluate(edges, dfa)
          assert(e.currentResults(ts) == expected, s"[${if (rapq) "RAPQ" else "RSPQ"}, $p] at ts=$ts")
        }
      }
      assert(e.graph.edges.exists(x => !dfa.labels.contains(x.label)), s"[$p] no foreign label is stored")
    }
  }

  test("vertex ids whose node key would overflow are rejected by both engines") {
    // query `a` has k = 2 states, so keys v·2 + s fit a Long for v in [-2^62, 2^62 - 1];
    // unchecked, 2^62 and -2^62 share a key and (7, -2^62) silently goes missing
    val dfa = Dfa.fromPattern("a")
    val (lo, hi) = (-(1L << 62), (1L << 62) - 1)
    for (e <- Seq[DeltaForest](new RapqEngine(dfa, WindowSpec(100, 10000)),
                               new RspqEngine(dfa, WindowSpec(100, 10000)))) {
      e.processTuple(Sgt(1, 7, hi, "a"))
      e.processTuple(Sgt(2, 7, lo, "a"))
      assert(e.results.toSet == Set((7L, hi), (7L, lo)))
      intercept[IllegalArgumentException](e.processTuple(Sgt(3, 7, hi + 1, "a")))
      intercept[IllegalArgumentException](e.processTuple(Sgt(3, lo - 1, 7, "a")))
      intercept[IllegalArgumentException](e.deleteEdge(3, 7, hi + 1, "a"))
      assert(e.graph.numEdges == 2, "a rejected tuple leaves no trace")
      e.forceExpiry(3)
      assert(e.currentResults(3) == Set((7L, hi), (7L, lo)))
    }
  }

  test("a timestamp below the latest one is rejected by both engines and the baseline") {
    // at ts = 100 the window is (90, 100]: accepting (3→4) at ts = 50 would
    // report a path that lies outside it
    val dfa = Dfa.fromPattern("a")
    val w = WindowSpec(10, 1)
    for (e <- Seq[DeltaForest](new RapqEngine(dfa, w), new RspqEngine(dfa, w))) {
      e.processTuple(Sgt(100, 1, 2, "a"))
      intercept[IllegalArgumentException](e.processTuple(Sgt(50, 3, 4, "a")))
      assert(e.graph.numEdges == 1, "a rejected tuple leaves no trace")
      e.processTuple(Sgt(100, 5, 6, "a")) // equal timestamps stay legal
      assert(e.results.toSet == Set((1L, 2L), (5L, 6L)))
    }
    // an expiry forced as of ts, and a delete at ts, move the clock to ts as
    // a tuple at ts does: the window has moved past what a later tuple below
    // ts would read. (1, 3) below is in the window at ts = 11, but the
    // forced expiry has already dropped 1 -a-> 2
    for (e <- Seq[DeltaForest](new RapqEngine(Dfa.fromPattern("a b"), WindowSpec(30, 10)),
                               new RspqEngine(Dfa.fromPattern("a b"), WindowSpec(30, 10)))) {
      e.processTuple(Sgt(10, 1, 2, "a"))
      e.forceExpiry(100)
      intercept[IllegalArgumentException](e.processTuple(Sgt(11, 2, 3, "b")))
      assert(e.graph.numEdges == 0, "a rejected tuple leaves no trace")
    }
    // accepted, 2 -b-> 4 at ts = 3 would find 1 -a-> 2 (ts 1) outside the
    // window as of the delete at ts = 50
    for (e <- Seq[DeltaForest](new RapqEngine(Dfa.fromPattern("a b*"), WindowSpec(10, 100)),
                               new RspqEngine(Dfa.fromPattern("a b*"), WindowSpec(10, 100)))) {
      e.processTuple(Sgt(1, 1, 2, "a"))
      e.processTuple(Sgt(2, 2, 3, "b"))
      e.deleteEdge(50, 2, 3, "b")
      intercept[IllegalArgumentException](e.processTuple(Sgt(3, 2, 4, "b")))
      assert(e.graph.numEdges == 1, "a rejected tuple leaves no trace")
    }
    val base = new PersistentBatchBaseline(dfa, w)
    base.processTuple(Sgt(100, 1, 2, "a"))
    intercept[IllegalArgumentException](base.processTuple(Sgt(50, 3, 4, "a")))
    assert(base.processTuple(Sgt(100, 5, 6, "a")) == Set((1L, 2L), (5L, 6L)))
  }

  test("self-loops under arbitrary semantics can produce self-results") {
    val dfa = Dfa.fromPattern("a b")
    val e = new RapqEngine(dfa, WindowSpec(100, 10000))
    e.processTuple(Sgt(1, 0, 1, "a"))
    e.processTuple(Sgt(2, 1, 0, "b"))
    assert(e.results.toSet == Set((0L, 0L)))
  }

  test("index sizes on a realistic stream stay bounded by n·k") {
    val dfa = Dfa.fromPattern("(a2q | c2a | c2q)+")
    val w = WindowSpec(size = 400, slide = 100)
    val e = new RapqEngine(dfa, w, collectResults = false)
    StreamGen.soLike(nVertices = 60, nEdges = 1200).foreach(e.processTuple)
    assert(e.numTrees <= 60)
    assert(e.numNodes <= 60L * 60L * dfa.k)
    assert(e.emissionCount > 0)
  }

  test("emissionCount counts raw emissions, results deduplicates") {
    val dfa = Dfa.fromPattern("a+")
    val e = new RapqEngine(dfa, WindowSpec(1000, 10000))
    e.processTuple(Sgt(1, 0, 1, "a"))
    e.processTuple(Sgt(2, 1, 2, "a"))
    e.processTuple(Sgt(3, 2, 1, "a")) // cycle 1→2→1: re-reaches (1, ...) states
    assert(e.emissionCount >= e.results.size)
    assert(e.results.toSet ==
      Set((0L, 1L), (0L, 2L), (1L, 2L), (1L, 1L), (2L, 1L), (2L, 2L)))
  }

  test("Insert, expiry and Delete do the same work at every slide of fixed streams") {
    // (emissionCount, numNodes, numTrees, expiryRuns) at the first tuple of
    // each slide. Emissions after Delete count re-discoveries, which
    // depend on the shape of each spanning tree, so the sequences pin down the
    // order in which Insert's traversal reaches nodes, not only its results.
    // That order is the window graph's: each vertex's edges in first-arrival
    // order. The append-only so Q2 counts do not depend on it; Delete's
    // re-discoveries on yago Q9 do, as they follow which of several equally
    // fresh parents a walk finds first.
    def workAtSlides(stream: Seq[Sgt], query: Queries.Q, w: WindowSpec): Seq[String] = {
      val e = new RapqEngine(query.dfa, w, collectResults = false)
      var slide = Long.MinValue
      stream.flatMap { t =>
        e.processTuple(t)
        if (t.ts / w.slide == slide) None
        else {
          slide = t.ts / w.slide
          Some(s"${e.emissionCount} ${e.numNodes} ${e.numTrees} ${e.expiryRuns}")
        }
      }
    }
    val soQ2 = Queries.so.find(_.name == "Q2").get
    val yagoQ9 = Queries.yago.find(_.name == "Q9").get
    val cases = Seq(
      "so Q2" -> workAtSlides(StreamGen.soLike(400, 3000, 5), soQ2, WindowSpec(2000, 60)),
      "yago Q9 with deletions" -> workAtSlides(
        StreamGen.withDeletions(StreamGen.yagoLike(1200, 6000, 9), 0.1, 19), yagoQ9,
        WindowSpec(3000, 300)),
    )
    val expected = Seq(
      "1 2 1 0;45 58 13 0;157 177 20 1;393 419 26 2;778 816 38 3;" +
      "1389 1436 47 4;2005 2061 56 5;2646 2707 61 6;3233 3298 65 7;3649 3717 68 8;" +
      "4457 4528 71 9;5163 5239 76 10;5843 5925 82 11;6306 6392 86 12;7047 7140 93 13;" +
      "7822 7920 98 14;9001 9103 102 15;9667 9770 103 16;10548 10655 107 17;11161 11270 109 18;" +
      "11716 11829 113 19;12271 12388 117 20;12706 12824 118 21;13640 13763 123 22;14578 14705 127 23;" +
      "15705 15837 132 24;16739 16876 137 25;17515 17654 139 26;18047 18188 141 27;18051 18192 141 28;" +
      "18195 18337 142 29;19132 19276 144 30;20562 20713 151 31;22285 22439 154 32;22894 23051 157 33;" +
      "23636 23358 157 34;24498 23458 155 35;25766 23261 154 36;26917 23058 151 37;27343 22205 144 38;" +
      "28052 21580 144 39;28633 21420 143 40;29853 22096 147 41;30279 21973 148 42;31144 22251 148 43;" +
      "32316 22421 149 44;33069 22558 150 45;33764 22552 149 46;34146 21603 142 47;34852 21374 138 48;" +
      "36006 21826 139 49",
      "1 2 1 0;233 388 174 19;532 793 320 44;927 1248 427 66;1483 1867 536 81;" +
      "2321 2735 628 97;3156 3521 704 118;4272 4653 772 134;5868 6162 828 154;8381 8351 881 175;" +
      "11624 11476 930 189;14558 14187 969 204;18819 16255 972 224;23581 15952 965 242;28187 17303 976 258;" +
      "32780 17346 982 275;38333 17281 984 286;41450 18633 990 297;45824 19695 991 312;51102 20325 994 326;" +
      "54586 19840 986 335;59228 19998 986 348;63231 19622 997 361",
    )
    cases.zip(expected).foreach { case ((name, actual), want) =>
      val wanted = want.split(';').toSeq
      val diverged = actual.zip(wanted).indexWhere { case (a, b) => a != b }
      if (diverged >= 0)
        fail(s"[$name] slide $diverged: got ${actual(diverged)}, want ${wanted(diverged)}")
      assert(actual.size == wanted.size, s"[$name] slides")
    }
  }
}
