package rpqbench

import scala.collection.mutable

/** A fixed reference computation that does the engines' kind of work:
  * depth-first walks over a fixed random graph with a stack of tuples, a hash
  * set of visited vertices and a map of small fresh objects. It does not call
  * the program, so a change to the program does not change its time; how
  * long a walk takes measures how fast the host runs this kind of code at
  * that moment. A run times one walk after every slide of a timed pass, and
  * `run.py` scales the pass's times by the walks' median (see README.md).
  */
object HostSpeed {
  private val Vertices = 1 << 13
  private val Degree = 6
  /** Vertices one walk visits. */
  val Visits = 3000

  private val adj: mutable.LongMap[Array[Long]] = {
    val m = mutable.LongMap.empty[Array[Long]]
    var x = 0x2545F4914F6CDD1DL
    var v = 0
    while (v < Vertices) {
      m(v.toLong) = Array.fill(Degree) { x ^= x << 13; x ^= x >>> 7; x ^= x << 17; java.lang.Math.floorMod(x, Vertices.toLong) }
      v += 1
    }
    m
  }
  private var root = 1L
  private var sink = 0L

  /** Nanoseconds one walk from the next pseudo-random root took. */
  def walk(): Long = {
    val t0 = System.nanoTime()
    val seen = mutable.HashSet.empty[Long]
    val depth = mutable.LongMap.empty[Array[Long]]
    val stack = mutable.Stack.empty[(Long, Int)]
    root = (root * 6364136223846793005L + 1442695040888963407L) >>> 51
    stack.push((root, 0))
    while (stack.nonEmpty && seen.size < Visits) {
      val (v, d) = stack.pop()
      if (seen.add(v)) {
        depth(v) = Array(d.toLong, v)
        adj(v).foreach(u => if (!seen.contains(u)) stack.push((u, d + 1)))
      }
    }
    sink += depth.size
    System.nanoTime() - t0
  }

  /** Enough walks for the JIT to compile `walk` fully before it is used as a measure. */
  def warmUp(): Unit = (1 to 100).foreach(_ => walk())
}
