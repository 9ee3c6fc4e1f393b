package repro.automaton

import scala.collection.mutable

/** ε-NFA produced by Thompson's construction (paper §2, [65]).
  *
  * States are dense ints. `edges(s)` lists `(labelOrNull, target)` where a
  * `None` label is an ε-transition. Thompson fragments always have a single
  * start and a single accept state.
  */
final case class Nfa(
    start: Int,
    accept: Int,
    edges: Vector[List[(Option[String], Int)]],
) {
  /** ε-closure of a state set (used by subset construction and tests). */
  def closure(states: Set[Int]): Set[Int] = {
    val seen  = mutable.Set.from(states)
    val stack = mutable.Stack.from(states)
    while (stack.nonEmpty) {
      val s = stack.pop()
      edges(s).foreach {
        case (None, t) if !seen(t) => seen += t; stack.push(t)
        case _                     =>
      }
    }
    seen.toSet
  }

  /** One consuming step from a closed state set. */
  def step(states: Set[Int], label: String): Set[Int] =
    closure(states.flatMap(s => edges(s).collect { case (Some(`label`), t) => t }))

  /** Reference acceptance check for tests. */
  def accepts(word: Seq[String]): Boolean =
    word.foldLeft(closure(Set(start)))(step).contains(accept)
}

object Nfa {

  /** Thompson construction: one ε-NFA fragment per AST node. */
  def fromRegex(r: Regex): Nfa = {
    val edges = mutable.ArrayBuffer.empty[mutable.ListBuffer[(Option[String], Int)]]

    def newState(): Int = { edges += mutable.ListBuffer.empty; edges.length - 1 }
    def link(from: Int, label: Option[String], to: Int): Unit = edges(from) += ((label, to))

    // Returns (start, accept) of the fragment for `r`.
    def build(r: Regex): (Int, Int) = r match {
      case Regex.Epsilon =>
        val s = newState(); val a = newState()
        link(s, None, a); (s, a)
      case Regex.Sym(l) =>
        val s = newState(); val a = newState()
        link(s, Some(l), a); (s, a)
      case Regex.Concat(x, y) =>
        val (sx, ax) = build(x); val (sy, ay) = build(y)
        link(ax, None, sy); (sx, ay)
      case Regex.Alt(x, y) =>
        val s = newState(); val a = newState()
        val (sx, ax) = build(x); val (sy, ay) = build(y)
        link(s, None, sx); link(s, None, sy)
        link(ax, None, a); link(ay, None, a)
        (s, a)
      case Regex.Star(x) =>
        val s = newState(); val a = newState()
        val (sx, ax) = build(x)
        link(s, None, sx); link(s, None, a)
        link(ax, None, sx); link(ax, None, a)
        (s, a)
      case Regex.Plus(x) =>
        // x+ ≡ x ∘ x*, built directly to keep the fragment small
        val (sx, ax) = build(x)
        val a = newState()
        link(ax, None, sx); link(ax, None, a)
        (sx, a)
      case Regex.Opt(x) =>
        val s = newState(); val a = newState()
        val (sx, ax) = build(x)
        link(s, None, sx); link(s, None, a)
        link(ax, None, a)
        (s, a)
    }

    val (start, accept) = build(r)
    Nfa(start, accept, edges.map(_.toList).toVector)
  }
}
