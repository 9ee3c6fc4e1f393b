package repro.core

import repro.core.DeltaForest.Node

/** One tree's newest node of each `(v, s)` pair, in an open-addressing table
  * of nodes: linear probing from a mixed hash of `(v, s)`, each probe
  * comparing the slot node's own `v` and `s`, so there is no key array. The
  * load stays at most ½, and the table doubles when an insertion would pass
  * it. A removal shifts the rest of its cluster back, so there are no
  * tombstones. Nothing iterates the table: [[DeltaForest.Tree.foreachNode]]
  * walks the tree instead, so no engine decision depends on slot order.
  */
private[core] final class NodeTable {
  private var slots = new Array[Node](8)
  private var count = 0

  /** Number of pairs keyed. */
  def size: Int = count

  private[core] def capacity: Int = slots.length

  /** The slot at which a probe for `(v, s)` starts. */
  private[core] def home(v: Long, s: Int): Int = {
    var h = v * 0x9E3779B97F4A7C15L + s
    h = (h ^ (h >>> 32)) * 0xD6E8FEB86659FD93L
    (h ^ (h >>> 32)).toInt & (slots.length - 1)
  }

  /** The slot keying `(v, s)`, or `-1 - i` for the empty slot `i` that ends
    * its probe.
    */
  private[core] def find(v: Long, s: Int): Int = {
    val a = slots
    val mask = a.length - 1
    var i = home(v, s)
    var n = a(i)
    while (n != null) {
      if (n.v == v && n.s == s) return i
      i = (i + 1) & mask
      n = a(i)
    }
    -1 - i
  }

  /** The node keyed for `(v, s)`, or `null`. */
  def get(v: Long, s: Int): Node = {
    val i = find(v, s)
    if (i >= 0) slots(i) else null
  }

  /** Key `n` for its pair, and return the node it replaces, or `null`. */
  def put(n: Node): Node = {
    val i = find(n.v, n.s)
    if (i >= 0) {
      val old = slots(i)
      slots(i) = n
      old
    } else {
      if (2 * (count + 1) > slots.length) {
        grow()
        slots(-1 - find(n.v, n.s)) = n
      } else slots(-1 - i) = n
      count += 1
      null
    }
  }

  /** Unkey `n` if it is keyed: key `next` for the pair in its place, or, if
    * `next` is `null`, drop the pair.
    */
  def remove(n: Node, next: Node): Unit = {
    val i = find(n.v, n.s)
    if (i >= 0 && (slots(i) eq n)) {
      if (next != null) slots(i) = next
      else {
        removeAt(i)
        count -= 1
      }
    }
  }

  /** Empty slot `hole`, moving back each later node of its cluster whose
    * probe would otherwise no longer reach it.
    */
  private def removeAt(hole: Int): Unit = {
    val a = slots
    val mask = a.length - 1
    var i = hole
    var j = (hole + 1) & mask
    while (a(j) != null) {
      val h = home(a(j).v, a(j).s)
      // a(j) may fill the hole unless its home lies cyclically in (i, j]
      if (((j - h) & mask) >= ((j - i) & mask)) {
        a(i) = a(j)
        i = j
      }
      j = (j + 1) & mask
    }
    a(i) = null
  }

  private def grow(): Unit = {
    val old = slots
    slots = new Array[Node](old.length * 2)
    var i = 0
    while (i < old.length) {
      val n = old(i)
      if (n != null) slots(-1 - find(n.v, n.s)) = n
      i += 1
    }
  }
}
