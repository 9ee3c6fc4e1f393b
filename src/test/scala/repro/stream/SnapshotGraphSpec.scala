package repro.stream

import org.scalatest.funsuite.AnyFunSuite

class SnapshotGraphSpec extends AnyFunSuite {

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
    assert(g.outEdges(1, 10).map(_.dst).toSet == Set(3L))
    assert(g.outEdges(1, 9).map(_.dst).toSet == Set(2L, 3L))
    assert(g.outEdges(1, 20).isEmpty)
  }

  test("inEdges mirrors outEdges") {
    val g = new SnapshotGraph
    g.add(1, 3, "a", 10); g.add(2, 3, "b", 20)
    assert(g.inEdges(3, 0).map(e => (e.src, e.label)).toSet == Set((1L, "a"), (2L, "b")))
    assert(g.inEdges(3, 15).map(_.src).toSet == Set(2L))
  }

  test("remove deletes the logical edge from both adjacency maps") {
    val g = new SnapshotGraph
    g.add(1, 2, "a", 10)
    assert(g.remove(1, 2, "a"))
    assert(!g.remove(1, 2, "a"))
    assert(g.outEdges(1, 0).isEmpty)
    assert(g.inEdges(2, 0).isEmpty)
    assert(g.numEdges == 0)
  }

  test("pruneExpired drops edges with ts <= minTs and returns the count") {
    val g = new SnapshotGraph
    g.add(1, 2, "a", 10); g.add(2, 3, "a", 20); g.add(3, 4, "a", 30)
    assert(g.pruneExpired(20) == 2)
    assert(g.numEdges == 1)
    assert(g.edges.map(_.ts).toSet == Set(30L))
    assert(g.inEdges(3, 0).isEmpty) // in-adjacency pruned too
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
