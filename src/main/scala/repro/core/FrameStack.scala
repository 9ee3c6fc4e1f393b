package repro.core

import repro.core.DeltaForest.Node

/** The frames waiting in a traversal, as parallel arrays: a frame tries to
  * add `(v, t)` as a child of `parent` by an edge with timestamp `edgeTs`,
  * and the engine's rule is checked at pop time. [[pop]] returns the parent
  * and leaves the frame's other fields in [[v]], [[t]] and [[edgeTs]], so a
  * frame allocates nothing. Popped and cleared slots are nulled, so the stack
  * keeps no node alive.
  */
private[core] final class FrameStack {
  private var parents = new Array[Node](64)
  private var vs = new Array[Long](64)
  private var states = new Array[Int](64)
  private var edgeTimes = new Array[Long](64)
  private var n = 0

  /** Fields of the frame popped last. */
  var v: Long = 0L
  var t: Int = 0
  var edgeTs: Long = 0L

  def size: Int = n
  def nonEmpty: Boolean = n > 0

  def push(parent: Node, v: Long, t: Int, edgeTs: Long): Unit = {
    if (n == parents.length) grow()
    parents(n) = parent
    vs(n) = v
    states(n) = t
    edgeTimes(n) = edgeTs
    n += 1
  }

  /** Pop the top frame: return its parent, and set [[v]], [[t]] and [[edgeTs]]. */
  def pop(): Node = {
    n -= 1
    val p = parents(n)
    parents(n) = null
    v = vs(n)
    t = states(n)
    edgeTs = edgeTimes(n)
    p
  }

  def clear(): Unit = {
    java.util.Arrays.fill(parents.asInstanceOf[Array[AnyRef]], 0, n, null)
    n = 0
  }

  /** Reverse the frames, so the bottom one pops first. */
  def reverse(): Unit = {
    var i = 0
    var j = n - 1
    while (i < j) {
      val p = parents(i); parents(i) = parents(j); parents(j) = p
      val x = vs(i); vs(i) = vs(j); vs(j) = x
      val y = states(i); states(i) = states(j); states(j) = y
      val z = edgeTimes(i); edgeTimes(i) = edgeTimes(j); edgeTimes(j) = z
      i += 1
      j -= 1
    }
  }

  private def grow(): Unit = {
    val c = n * 2
    parents = java.util.Arrays.copyOf(parents, c)
    vs = java.util.Arrays.copyOf(vs, c)
    states = java.util.Arrays.copyOf(states, c)
    edgeTimes = java.util.Arrays.copyOf(edgeTimes, c)
  }
}
