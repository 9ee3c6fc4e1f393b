package repro.automaton

import scala.collection.mutable

/** Minimal, trimmed DFA for an RPQ (paper Definition 10).
  *
  * - built by subset construction over the Thompson NFA, then Hopcroft
  *   minimization [41], then trimming of dead states (states from which no
  *   final state is reachable) — so `delta` is *partial*: a missing
  *   transition means the word can never be completed to a match, and the
  *   engines simply stop traversal.
  * - states are `0 until k` with `start == 0`.
  * - the sorted alphabet gives label ids `0 until m`, which index a flat
  *   transition table ([[step]]) for the engines' per-edge walks and a
  *   table of each label's `(s, t)` pairs ([[pairs]]) for their per-tuple
  *   seeding; the `String`-keyed [[delta]] and [[byLabel]] serve the oracles
  *   and Spark.
  */
final case class Dfa(
    start: Int,
    finals: Set[Int],
    trans: Vector[Map[String, Int]],
    alphabet: Set[String],
) {
  /** Number of automaton states, the `k` of the paper's complexity bounds. */
  def k: Int = trans.length

  /** The alphabet in sorted order: label id `l` names `labels(l)`. */
  val labels: IndexedSeq[String] = alphabet.toVector.sorted

  /** Number of labels, the width of the transition table. */
  val m: Int = labels.length

  // next(s * m + l) = δ(s, labels(l)), or -1 where δ is undefined
  private val next: Array[Int] =
    Array.tabulate(k * m)(i => trans(i / m).getOrElse(labels(i % m), -1))
  private val finalStates: Array[Boolean] = Array.tabulate(k)(finals.contains)
  // pairTable(l) = s, t, s', t', …: the (s, t) with δ(s, labels(l)) = t, ascending s
  private val pairTable: Array[Array[Int]] = Array.tabulate(m) { l =>
    (0 until k).filter(s => next(s * m + l) >= 0).flatMap(s => Seq(s, next(s * m + l))).toArray
  }

  def isFinal(s: Int): Boolean = finalStates(s)

  /** δ(s, labels(l)) for a label id `l ≥ 0`, or −1 where δ is undefined; an
    * id `≥ m` lies outside the alphabet and has no transition.
    */
  def step(s: Int, l: Int): Int = if (l < m) next(s * m + l) else -1

  /** The `(s, t)` pairs with δ(s, labels(l)) = t for a label id `l ≥ 0`, as
    * one flat array `s, t, s', t', …` in ascending `s`, the order of
    * [[byLabel]]; an id `≥ m` has none.
    */
  def pairs(l: Int): Array[Int] = if (l < m) pairTable(l) else Array.emptyIntArray

  /** Partial transition function δ(s, label). */
  def delta(s: Int, label: String): Option[Int] = trans(s).get(label)

  /** All `(s, t)` pairs with δ(s, label) = t — the product-graph expansion of
    * one stream edge touches exactly these pairs.
    */
  lazy val byLabel: Map[String, List[(Int, Int)]] =
    trans.zipWithIndex
      .flatMap { case (m, s) => m.map { case (l, t) => (l, s, t) } }
      .groupBy(_._1)
      .map { case (l, xs) => l -> xs.map(x => (x._2, x._3)).toList }

  /** δ*(start, word) ∈ F — reference acceptance for tests and oracles. */
  def accepts(word: Seq[String]): Boolean = {
    var s = start
    val it = word.iterator
    while (it.hasNext) {
      trans(s).get(it.next()) match {
        case Some(t) => s = t
        case None    => return false
      }
    }
    finals.contains(s)
  }

  /** Whether ε ∈ L(A), i.e. the start state is accepting. */
  def acceptsEmpty: Boolean = finals.contains(start)

  /** Transitions as rows `(srcState, label, dstState)` — used to ship the
    * automaton into DataFrames and the DuckDB oracle.
    */
  def transitionRows: Seq[(Int, String, Int)] =
    for ((m, s) <- trans.zipWithIndex.toSeq; (l, t) <- m) yield (s, l, t)
}

object Dfa {

  /** End-to-end pipeline: parse nothing here — callers hand an AST. */
  def fromRegex(r: Regex): Dfa = minimize(subset(Nfa.fromRegex(r), r.labels))

  def fromPattern(pattern: String): Dfa = fromRegex(Regex.parse(pattern))

  /** Subset construction: ε-NFA → (possibly non-minimal, partial) DFA. */
  def subset(nfa: Nfa, alphabet: Set[String]): Dfa = {
    val ids   = mutable.Map.empty[Set[Int], Int]
    val trans = mutable.ArrayBuffer.empty[mutable.Map[String, Int]]
    val queue = mutable.Queue.empty[Set[Int]]

    def id(set: Set[Int]): Int = ids.getOrElseUpdate(set, {
      trans += mutable.Map.empty
      queue.enqueue(set)
      trans.length - 1
    })

    val startSet = nfa.closure(Set(nfa.start))
    val startId  = id(startSet)
    val finals   = mutable.Set.empty[Int]
    if (startSet.contains(nfa.accept)) finals += startId

    while (queue.nonEmpty) {
      val set = queue.dequeue()
      val sid = ids(set)
      for (l <- alphabet) {
        val next = nfa.step(set, l)
        if (next.nonEmpty) {
          val tid = id(next)
          if (next.contains(nfa.accept)) finals += tid
          trans(sid)(l) = tid
        }
      }
    }
    trim(Dfa(startId, finals.toSet, trans.map(_.toMap).toVector, alphabet))
  }

  /** Hopcroft's O(k log k) partition refinement. The partial DFA is completed
    * with an implicit sink (id == k) for the refinement, which the final trim
    * removes again.
    */
  def minimize(dfa: Dfa): Dfa = {
    val k    = dfa.k
    val sink = k
    val n    = k + 1
    val alphabet = dfa.alphabet.toVector

    // inverse transition lists: inv(label)(target) = sources
    val inv = alphabet.map { l =>
      val m = Array.fill(n)(List.empty[Int])
      for (s <- 0 until n) {
        val t = if (s == sink) sink else dfa.trans(s).getOrElse(l, sink)
        m(t) ::= s
      }
      l -> m
    }.toMap

    val finals    = dfa.finals
    val nonFinals = (0 until n).filterNot(finals).toSet
    var partition = List(finals, nonFinals).filter(_.nonEmpty)
    val worklist  = mutable.Set.empty[Set[Int]]
    worklist += (if (finals.size <= nonFinals.size) finals else nonFinals)

    while (worklist.nonEmpty) {
      val a = worklist.head; worklist -= a
      for (l <- alphabet) {
        val x = a.flatMap(t => inv(l)(t))
        if (x.nonEmpty) {
          partition = partition.flatMap { y =>
            val y1 = y & x
            if (y1.isEmpty || y1.size == y.size) List(y)
            else {
              val y2 = y -- x
              if (worklist.contains(y)) { worklist -= y; worklist += y1; worklist += y2 }
              else worklist += (if (y1.size <= y2.size) y1 else y2)
              List(y1, y2)
            }
          }
        }
      }
    }

    val classOf = Array.fill(n)(-1)
    partition.zipWithIndex.foreach { case (cls, i) => cls.foreach(classOf(_) = i) }
    val sinkClass = classOf(sink)

    val reps = partition.map(_.head).toVector
    val newTrans = reps.map { rep =>
      if (rep == sink) Map.empty[String, Int]
      else dfa.trans(rep).collect {
        case (l, t) if classOf(t) != sinkClass => l -> classOf(t)
      }
    }
    val newFinals = dfa.finals.map(classOf(_))
    trim(Dfa(classOf(dfa.start), newFinals, newTrans, dfa.alphabet))
  }

  /** Keep only states reachable from start and co-reachable to a final state;
    * renumber so start == 0 (BFS order, deterministic).
    */
  def trim(dfa: Dfa): Dfa = {
    // forward reachability
    val fwd = mutable.Set(dfa.start)
    val q   = mutable.Queue(dfa.start)
    while (q.nonEmpty) {
      val s = q.dequeue()
      dfa.trans(s).values.foreach(t => if (!fwd(t)) { fwd += t; q.enqueue(t) })
    }
    // backward reachability from finals (over forward-reachable subgraph)
    val rev = mutable.Map.empty[Int, mutable.Set[Int]]
    for (s <- fwd; (_, t) <- dfa.trans(s)) rev.getOrElseUpdate(t, mutable.Set.empty) += s
    val bwd = mutable.Set.from(dfa.finals.filter(fwd))
    val q2  = mutable.Queue.from(bwd)
    while (q2.nonEmpty) {
      val t = q2.dequeue()
      rev.getOrElse(t, Set.empty).foreach(s => if (!bwd(s)) { bwd += s; q2.enqueue(s) })
    }
    val alive = fwd.toSet & (bwd.toSet + dfa.start) // keep start even for empty languages

    // BFS renumbering from start for a canonical layout
    val order  = mutable.ArrayBuffer.empty[Int]
    val seen   = mutable.Set(dfa.start)
    val q3     = mutable.Queue(dfa.start)
    while (q3.nonEmpty) {
      val s = q3.dequeue()
      order += s
      for (l <- dfa.trans(s).keys.toSeq.sorted; t = dfa.trans(s)(l) if alive(t) && !seen(t)) {
        seen += t; q3.enqueue(t)
      }
    }
    val newId = order.zipWithIndex.toMap
    val trans = order.map { s =>
      dfa.trans(s).collect { case (l, t) if newId.contains(t) => l -> newId(t) }.toMap
    }.toVector
    Dfa(0, dfa.finals.collect { case f if newId.contains(f) => newId(f) }, trans, dfa.alphabet)
  }
}
