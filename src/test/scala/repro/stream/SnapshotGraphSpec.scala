package repro.stream

import scala.collection.mutable

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class SnapshotGraphSpec extends AnyFunSuite {
  import SnapshotGraphSpec.Step

  /** `(other, label, ts)` of the entries of one vertex record whose
    * timestamp is strictly greater than `minTs`, in record order.
    */
  private def valid(g: SnapshotGraph, r: SnapshotGraph.Adjacency, minTs: Long): Seq[(Long, String, Long)] =
    (0 until r.size).filter(i => r.ts(i) > minTs).map(i => (r.other(i), g.labelName(r.label(i)), r.ts(i)))

  /** `(dst, label, ts)` of the valid out-edges of `v`, via `outOf`. */
  private def outs(g: SnapshotGraph, v: Long, minTs: Long): Seq[(Long, String, Long)] =
    valid(g, g.outOf(v), minTs)

  /** `(src, label, ts)` of the valid in-edges of `v`, via `inOf`. */
  private def ins(g: SnapshotGraph, v: Long, minTs: Long): Seq[(Long, String, Long)] =
    valid(g, g.inOf(v), minTs)

  test("add returns true for new edges, false for refreshes") {
    val g = new SnapshotGraph
    assert(g.add(1, 2, "a", 10))
    assert(!g.add(1, 2, "a", 20))
    assert(g.add(1, 2, "b", 10)) // different label = different logical edge
    assert(g.add(2, 1, "a", 10)) // direction matters
  }

  test("re-arrival keeps the freshest timestamp") {
    val g = new SnapshotGraph
    g.add(1, 2, "a", 10)
    g.add(1, 2, "a", 30)
    assert(g.timestamp(1, 2, "a").contains(30))
    g.add(1, 2, "a", 20) // older duplicate must not regress
    assert(g.timestamp(1, 2, "a").contains(30))
  }

  test("numEdges and numVertices count distinct logical entities") {
    val g = new SnapshotGraph
    g.add(1, 2, "a", 1); g.add(2, 3, "a", 2); g.add(1, 2, "a", 3)
    assert(g.numEdges == 2)
  }

  test("outEdges filters on timestamp strictly greater than minTs") {
    val g = new SnapshotGraph
    g.add(1, 2, "a", 10)
    g.add(1, 3, "b", 20)
    assert(outs(g, 1, 10).map(_._1).toSet == Set(3L))
    assert(outs(g, 1, 9).map(_._1).toSet == Set(2L, 3L))
    assert(outs(g, 1, 20).isEmpty)
  }

  test("inEdges mirrors outEdges") {
    val g = new SnapshotGraph
    g.add(1, 3, "a", 10); g.add(2, 3, "b", 20)
    assert(ins(g, 3, 0).map(e => (e._1, e._2)).toSet == Set((1L, "a"), (2L, "b")))
    assert(ins(g, 3, 15).map(_._1).toSet == Set(2L))
  }

  test("remove deletes the logical edge from both adjacency maps") {
    val g = new SnapshotGraph
    g.add(1, 2, "a", 10)
    assert(g.remove(1, 2, "a"))
    assert(!g.remove(1, 2, "a"))
    assert(outs(g, 1, 0).isEmpty)
    assert(ins(g, 2, 0).isEmpty)
    assert(g.numEdges == 0)
  }

  test("pruneExpired drops edges with ts <= minTs and returns the count") {
    val g = new SnapshotGraph
    g.add(1, 2, "a", 10); g.add(2, 3, "a", 20); g.add(3, 4, "a", 30)
    assert(g.pruneExpired(20) == 2)
    assert(g.numEdges == 1)
    assert(g.edges.map(_.ts).toSet == Set(30L))
    assert(ins(g, 3, 0).isEmpty) // in-adjacency pruned too
  }

  test("prune then re-add works") {
    val g = new SnapshotGraph
    g.add(1, 2, "a", 10)
    g.pruneExpired(10)
    assert(g.add(1, 2, "a", 50))
    assert(g.timestamp(1, 2, "a").contains(50))
  }

  test("refresh keeps the edge alive across pruning") {
    val g = new SnapshotGraph
    g.add(1, 2, "a", 10)
    g.add(1, 2, "a", 100)
    g.pruneExpired(50)
    assert(g.numEdges == 1)
  }

  test("edges lists every stored edge") {
    val g = new SnapshotGraph
    g.add(1, 2, "a", 1); g.add(1, 2, "b", 2); g.add(5, 6, "a", 3)
    assert(g.edges.map(e => (e.src, e.dst, e.label)).toSet ==
      Set((1L, 2L, "a"), (1L, 2L, "b"), (5L, 6L, "a")))
  }

  test("the arrival queue holds exactly the arrivals the last prune left in the window") {
    // 20 windows of one tuple per time unit, with re-arrivals (12 vertices)
    // and deletions of window edges, pruned at the engines' slide boundaries
    val w = WindowSpec(100, 10)
    val g = new SnapshotGraph
    val clock = new SlideClock(w.slide)
    val rnd = new scala.util.Random(47)
    var minTs = Long.MinValue
    (1L to 2000L).foreach { ts =>
      if (clock.tick(ts)) { minTs = w.lowerBound(ts); g.pruneExpired(minTs) }
      val (u, v) = (rnd.nextInt(12).toLong, rnd.nextInt(12).toLong)
      if (ts % 7 == 0) g.remove(u, v, "a") else g.add(u, v, "a", ts)
      val arrivals = (1L to ts).count(t => t % 7 != 0 && t > minTs)
      assert(g.queuedArrivals == arrivals, s"at $ts")
      assert(g.edges.forall(_.ts > minTs), s"at $ts")
    }
  }

  test("an older arrival of a new edge is still pruned on time") {
    val g = new SnapshotGraph
    g.add(1, 2, "a", 30)
    g.add(3, 4, "a", 5)
    g.add(1, 2, "a", 20) // older than the stored 30: nothing to expire later
    assert(g.queuedArrivals == 2)
    assert(g.pruneExpired(10) == 1)
    assert(g.edges.map(e => (e.src, e.ts)).toSet == Set((1L, 30L)))
  }

  test("vertex records are bounded by the window, not by the stream") {
    // a chain through ever new vertices, pruned at every slide: a vertex whose
    // edges all expired keeps no record
    val w = WindowSpec(100, 10)
    val g = new SnapshotGraph
    val clock = new SlideClock(w.slide)
    (1L to 100000L).foreach { ts =>
      if (clock.tick(ts)) g.pruneExpired(w.lowerBound(ts))
      g.add(ts, ts + 1, "a", ts)
      assert(g.vertexRecords <= 2 * g.numEdges, s"at $ts")
    }
  }

  private val genStep: Gen[Step] = for {
    kind <- Gen.choose(0, 9)
    src <- Gen.choose(0L, 5L)
    dst <- Gen.choose(0L, 5L)
    label <- Gen.oneOf("a", "b", "c")
    dt <- Gen.choose(0L, 4L)
  } yield Step(kind, src, dst, label, dt)

  test("property: the window graph agrees with a first-arrival-ordered reference model") {
    // adds at the clock (refreshes when the edge is stored), older arrivals,
    // removals of present, absent and never-seen-label edges, and prunes
    (0 until 40).foreach { run =>
      val steps = Gen.listOfN(250, genStep).pureApply(Gen.Parameters.default, Seed(run.toLong))
      val g = new SnapshotGraph
      val model = mutable.LinkedHashMap.empty[(Long, Long, String), Long]
      val queued = mutable.ArrayBuffer.empty[Long] // timestamps of queued arrivals
      val added = mutable.Set.empty[String] // labels passed to add
      var now = 100L
      def set(key: (Long, Long, String), ts: Long): Unit = { model(key) = ts; queued += ts }
      steps.zipWithIndex.foreach { case (st, i) =>
        val key = (st.src, st.dst, st.label)
        val at = s"run $run, step $i: $st"
        st.kind match {
          case k if k <= 6 =>
            val ts = if (k == 6) now - 10 * st.dt else { now += st.dt; now }
            val isNew = !model.contains(key)
            if (isNew || ts > model(key)) set(key, ts)
            assert(g.add(st.src, st.dst, st.label, ts) == isNew, at)
            added += st.label
          case 7 =>
            assert(g.remove(st.src, st.dst, st.label) == model.remove(key).isDefined, at)
          case 8 =>
            assert(!g.remove(st.src, st.dst, "never-seen"), at)
            assert(g.timestamp(st.src, st.dst, "never-seen").isEmpty, at)
          case _ =>
            val minTs = now - 20
            val due = model.collect { case (e, ts) if ts <= minTs => e }
            model --= due
            queued.filterInPlace(_ > minTs)
            assert(g.pruneExpired(minTs) == due.size, at)
        }
        assert(g.numEdges == model.size, at)
        assert(g.queuedArrivals == queued.size, at)
        assert(g.edges.map(e => ((e.src, e.dst, e.label), e.ts)).toMap == model.toMap, at)
        assert(g.timestamp(st.src, st.dst, st.label) == model.get(key), at)
        (0L to 5L).foreach { v =>
          val outModel = model.toSeq.collect { case ((`v`, d, l), ts) => (d, l, ts) }
          val inModel = model.toSeq.collect { case ((s, `v`, l), ts) => (s, l, ts) }
          assert(outs(g, v, Long.MinValue) == outModel, s"$at: out-list of $v")
          assert(ins(g, v, Long.MinValue) == inModel, s"$at: in-list of $v")
        }
      }
      // the never-seen label was not interned: it takes the next free id
      assert(g.labelId("never-seen") == added.size, s"run $run")
    }
  }

  test("WindowSpec lower bound") {
    val w = WindowSpec(size = 15, slide = 3)
    assert(w.lowerBound(18) == 3)
    // Definition 4: contents are (W^b, W^e], i.e. ts=3 is OUT, ts=4 is in
  }

  test("WindowSpec validates its parameters") {
    intercept[IllegalArgumentException](WindowSpec(0, 1))
    intercept[IllegalArgumentException](WindowSpec(10, 0))
  }
}

object SnapshotGraphSpec {
  /** One step of a differential run; `dt` moves the test's clock. */
  private final case class Step(kind: Int, src: Long, dst: Long, label: String, dt: Long)
}
