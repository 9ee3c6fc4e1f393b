package rpqbench

import scala.collection.mutable

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.Dfa
import repro.core.RapqEngine
import repro.stream.{Op, Sgt, WindowSpec}

class BenchSpec extends AnyFunSuite {

  test("SlideClock marks exactly the tuples on which RapqEngine runs expiry") {
    val dfa = Dfa.fromPattern("a b*")
    val window = WindowSpec(size = 20, slide = 7)
    val rnd = new scala.util.Random(5)
    var ts = 0L
    // Gaps of 0 to 9 time units: equal timestamps, exact multiples of the
    // slide and jumps past several slides all occur.
    val stream = Vector.fill(2000) {
      ts += rnd.nextInt(10)
      Sgt(ts, rnd.nextInt(30).toLong, rnd.nextInt(30).toLong, if (rnd.nextBoolean()) "a" else "b")
    }
    val engine = new RapqEngine(dfa, window, collectResults = false)
    val clock = new SlideClock(window.slide)
    var slides = 0
    stream.foreach { t =>
      val before = engine.expiryRuns
      val predicted = clock.tick(t.ts)
      engine.processTuple(t)
      assert((engine.expiryRuns - before == 1) == predicted, s"at ts=${t.ts}")
      if (predicted) slides += 1
    }
    assert(slides > 100)
  }

  test("in-window deletions only target edges live in the window") {
    val w = Workloads.byName("yago-delete")
    val stream = w.generate(w.streamSeed(seed = 3, jvm = 0, pass = 0))
    val latest = mutable.HashMap.empty[(Long, Long, String), Long]
    var deletes = 0
    stream.zip(stream.tail).foreach { case (a, b) => assert(a.ts < b.ts) }
    stream.foreach { t =>
      val k = (t.src, t.dst, t.label)
      t.op match {
        case Op.Insert => latest(k) = t.ts
        case Op.Delete =>
          val live = latest.get(k)
          assert(live.exists(_ > t.ts - w.window.size), s"delete of $k at ${t.ts}: last insert $live")
          latest.remove(k)
          deletes += 1
      }
    }
    val inserts = stream.count(_.op == Op.Insert)
    assert(inserts == w.tuples)
    assert(math.abs(deletes.toDouble / inserts - w.deleteRatio) < 0.02)
  }

  test("the window edges the oracle uses follow inserts, refreshes, deletes and expiry") {
    val stream = Seq(
      Sgt(1, 1, 2, "a"), Sgt(2, 2, 3, "b"), Sgt(3, 1, 2, "a"), Sgt(4, 2, 3, "b", Op.Delete),
      Sgt(5, 3, 4, "a"), Sgt(9, 4, 5, "b"))
    val edges = Workloads.windowEdges(stream, endTs = 9, window = 6).map(e => (e.src, e.dst, e.label)).toSet
    assert(edges == Set((3L, 4L, "a"), (4L, 5L, "b")))
  }
}
