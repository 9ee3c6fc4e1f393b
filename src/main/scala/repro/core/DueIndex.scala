package repro.core

import scala.collection.mutable

import repro.core.DeltaForest.Node

/** Δ nodes filed by slide-sized timestamp bucket `⌊ts / β⌋`, so that a slide
  * visits only the buckets that are due (ExpiryRAPQ's and ExpiryRSPQ's lazy
  * expiration, §3.1 and §4.1) instead of every node of Δ.
  *
  * Each bucket is a list threaded through [[Node.nextDue]], in filing order,
  * so filing a node allocates nothing unless it opens a bucket. A heap orders
  * the ids of the buckets that hold entries; empty buckets do not exist, so a
  * timestamp gap costs nothing. The index holds each node at most once: a
  * node is filed when it joins a tree and re-filed only after it is popped.
  */
private[core] final class DueIndex(slide: Long) {
  private final class Bucket(var head: Node, var tail: Node)

  private val buckets = mutable.LongMap.empty[Bucket]
  // binary min-heap of the keys of `buckets`
  private var ids = new Array[Long](16)
  private var numIds = 0
  private var entries = 0L

  /** Nodes filed and not yet popped. */
  def size: Long = entries
  def numBuckets: Int = buckets.size
  /** Id of the oldest bucket, `Long.MaxValue` if there is none. */
  def firstBucket: Long = if (numIds == 0) Long.MaxValue else ids(0)

  /** Every filed node, for tests. */
  def nodes: Iterator[Node] = buckets.valuesIterator.flatMap { b =>
    Iterator.iterate(b.head)(_.nextDue).takeWhile(_ != null)
  }

  /** File `n` under its current timestamp. */
  def file(n: Node): Unit = {
    val id = Math.floorDiv(n.ts, slide)
    val b = buckets.getOrNull(id)
    n.nextDue = null
    if (b == null) {
      buckets(id) = new Bucket(n, n)
      push(id)
    } else {
      b.tail.nextDue = n
      b.tail = n
    }
    entries += 1
  }

  /** Remove every bucket with id `≤ last` and pass their nodes to `f`, oldest
    * bucket first and each bucket in filing order. The buckets are detached
    * before `f` runs, so `f` may file a node again, even under `last`.
    */
  def popThrough(last: Long)(f: Node => Unit): Unit = {
    var head: Node = null
    var tail: Node = null
    while (numIds > 0 && ids(0) <= last) {
      val id = popMin()
      val b = buckets(id)
      buckets.subtractOne(id)
      if (head == null) head = b.head else tail.nextDue = b.head
      tail = b.tail
    }
    var n = head
    while (n != null) {
      val next = n.nextDue
      n.nextDue = null
      entries -= 1
      f(n)
      n = next
    }
  }

  private def push(id: Long): Unit = {
    if (numIds == ids.length) ids = java.util.Arrays.copyOf(ids, numIds * 2)
    var i = numIds
    numIds += 1
    while (i > 0 && ids((i - 1) / 2) > id) { ids(i) = ids((i - 1) / 2); i = (i - 1) / 2 }
    ids(i) = id
  }

  private def popMin(): Long = {
    val min = ids(0)
    numIds -= 1
    val moved = ids(numIds)
    var i = 0
    var c = 1
    while (c < numIds) {
      if (c + 1 < numIds && ids(c + 1) < ids(c)) c += 1
      if (ids(c) < moved) { ids(i) = ids(c); i = c; c = 2 * i + 1 }
      else c = numIds
    }
    ids(i) = moved
    min
  }
}
