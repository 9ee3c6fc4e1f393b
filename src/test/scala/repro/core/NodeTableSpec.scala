package repro.core

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

/** [[NodeTable]]: linear probing with backward-shift removal, checked
  * operation by operation against a reference `Map`.
  */
class NodeTableSpec extends AnyFunSuite {
  import DeltaForest.Node

  private def node(v: Long, s: Int): Node = new Node(v, s, null, 0L)

  /** Apply `op` to the table and the reference map, then check that every
    * pair of `probe` is keyed exactly as the reference says.
    */
  private final class Checked(probe: => Iterable[(Long, Int)]) {
    val table = new NodeTable
    var ref = Map.empty[(Long, Int), Node]

    def put(n: Node): Unit = {
      assert(table.put(n) eq ref.getOrElse((n.v, n.s), null), s"put (${n.v}, ${n.s}) returned the wrong node")
      ref += (n.v, n.s) -> n
      check(s"after put (${n.v}, ${n.s})")
    }

    def remove(n: Node, next: Node): Unit = {
      table.remove(n, next)
      if (ref.get((n.v, n.s)).exists(_ eq n))
        ref = if (next != null) ref + ((n.v, n.s) -> next) else ref - ((n.v, n.s))
      check(s"after remove (${n.v}, ${n.s})")
    }

    def check(at: String): Unit = {
      assert(table.size == ref.size, s"$at: size")
      assert(2 * table.size <= table.capacity, s"$at: load above one half")
      (probe ++ ref.keys).foreach { case (v, s) =>
        assert(table.get(v, s) eq ref.getOrElse((v, s), null), s"$at: get ($v, $s)")
      }
    }
  }

  /** Pairs `(v, 0)` whose probe starts at `slot` in a fresh table. */
  private def homedAt(slot: Int): Iterator[(Long, Int)] = {
    val fresh = new NodeTable
    Iterator.from(0).map(i => (i.toLong, 0)).filter { case (v, s) => fresh.home(v, s) == slot }
  }

  // A cluster that wraps past the end of a fresh table: two pairs homed at
  // the last but one slot, one at the last, one at slot 0. It fills the
  // slots capacity - 2, capacity - 1, 0 and 1, as many as the load allows.
  private def wrappingCluster(): Seq[Node] = {
    val last = new NodeTable().capacity - 1
    val (a, b) = { val h = homedAt(last - 1); (h.next(), h.next()) }
    (Seq(a, b, homedAt(last).next(), homedAt(0).next())).map { case (v, s) => node(v, s) }
  }

  test("a cluster wraps past the end of the slot array") {
    val cluster = wrappingCluster()
    val c = new Checked(Nil)
    cluster.foreach(c.put)
    val cap = c.table.capacity
    assert(cluster.map(n => c.table.find(n.v, n.s)) == Seq(cap - 2, cap - 1, 0, 1))
  }

  test("removal at every position of a wrapping cluster keeps the rest reachable") {
    val cluster = wrappingCluster()
    cluster.indices.foreach { i =>
      val c = new Checked(cluster.map(n => (n.v, n.s)))
      cluster.foreach(c.put)
      c.remove(cluster(i), null)
      assert(c.table.capacity == new NodeTable().capacity, "the cluster must not have grown the table")
      // removing the rest, in another order, empties the table
      (cluster.drop(i + 1) ++ cluster.take(i)).foreach(c.remove(_, null))
      assert(c.table.size == 0)
    }
  }

  test("unkeying a node keys its replacement, and ignores a node that is not keyed") {
    val cluster = wrappingCluster()
    val c = new Checked(cluster.map(n => (n.v, n.s)))
    cluster.foreach(c.put)
    val older = node(cluster(1).v, cluster(1).s)
    c.remove(older, null) // not keyed: no change
    val newer = node(cluster(1).v, cluster(1).s)
    c.remove(cluster(1), newer)
    assert(c.table.get(newer.v, newer.s) eq newer)
    val replaced = node(cluster(2).v, cluster(2).s)
    c.put(replaced) // put replaces the node keyed for the pair
  }

  test("growth in the middle of a cluster rehashes every pair") {
    val cluster = wrappingCluster()
    val c = new Checked(Nil)
    cluster.take(2).foreach(c.put)
    val cap = c.table.capacity
    // a third pair homed at the cluster's start, then the rest, passes half load
    val more = homedAt(cap - 2).drop(2).take(3).map { case (v, s) => node(v, s) }.toSeq
    (cluster.drop(2) ++ more).foreach(c.put)
    assert(c.table.capacity > cap, "the table did not grow")
    (cluster ++ more).foreach(n => assert(c.table.get(n.v, n.s) eq n))
  }

  test("absent pairs at the ends of the vertex range and at negative ids are not found") {
    val k = 5
    val minVertex = Long.MinValue / k
    val maxVertex = (Long.MaxValue - (k - 1)) / k
    val extremes = for (v <- Seq(minVertex, maxVertex, -1L, -2L, -12345L, 0L); s <- 0 until k) yield (v, s)
    val c = new Checked(extremes)
    c.check("empty")
    val ns = extremes.filter(_._2 % 2 == 0).map { case (v, s) => node(v, s) }
    ns.foreach(c.put)
    ns.foreach(c.remove(_, null))
  }

  test("random puts, replacements and removals agree with a reference map") {
    val rnd = new Random(23)
    val pairs = (for (v <- -20L to 20L; s <- 0 until 3) yield (v, s)) ++
      Seq((Long.MinValue / 3, 0), ((Long.MaxValue - 2) / 3, 2))
    val c = new Checked(pairs)
    (1 to 3000).foreach { _ =>
      val (v, s) = pairs(rnd.nextInt(pairs.size))
      val keyed = c.table.get(v, s)
      rnd.nextInt(3) match {
        case 0 | 1 => c.put(node(v, s))
        case _ if keyed != null =>
          c.remove(keyed, if (rnd.nextBoolean()) node(v, s) else null)
        case _ => c.remove(node(v, s), null)
      }
    }
    assert(c.table.capacity > 8, "the run never grew the table")
  }
}
