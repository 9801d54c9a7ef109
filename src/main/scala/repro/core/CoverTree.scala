package repro.core

import scala.collection.mutable

/** Cover tree (Beygelzimer, Kakade, Langford '06; simplified insert à la
  * Izbicki–Shelton) for nearest-neighbor queries in a metric space.
  *
  * Invariants maintained:
  *   - *covering*: every child of a node at level i is within 2^i of it;
  *   - *descendant radius*: any descendant of a node at level i is within
  *     Σ_{j ≤ i} 2^j = 2^(i+1) of it — this is the branch-and-bound pruning
  *     radius used by [[nearestWithin]].
  *
  * Exact duplicates are folded into a node multiplicity so insertion always
  * terminates. The paper uses the cover tree only for the BCP sub-problems in
  * exact-DBSCAN Step (2) and notes any cover-tree variant may be substituted.
  */
final class CoverTree[T](metric: Metric[T]) extends Serializable {

  /** payload, carrier index (caller-defined id), tree level. */
  private final class Node(val point: T, val idx: Int, var level: Int) {
    var children: List[Node] = Nil
    var duplicates: List[Int] = Nil // extra carrier ids at distance 0
  }

  private var root: Node = _
  private var count      = 0

  def size: Int = count
  def isEmpty: Boolean = count == 0

  /** Level such that 2^level ≥ d (d > 0). */
  private def levelFor(d: Double): Int =
    math.max(-60, math.min(62, math.ceil(math.log(d) / math.log(2.0)).toInt))

  /** Insert `point` with caller id `idx`. */
  def insert(point: T, idx: Int): Unit = {
    count += 1
    if (root == null) { root = new Node(point, idx, -60); return }
    val dRoot = metric.dist(point, root.point)
    if (dRoot == 0.0) { root.duplicates ::= idx; return }
    // Raise the root level until the new point fits under it.
    if (dRoot > Math.scalb(1.0, root.level)) root.level = levelFor(dRoot)
    insertRec(root, point, idx, dRoot)
  }

  /** Pre: d(p, q.point) ≤ 2^q.level. Attach p somewhere below q: under the
    * closest child c with d(p, c) ≤ 2^c.level, else as a new child of q at
    * level q.level − 1. Each child is tested against its own level, not
    * q.level − 1: a child created before the root's level was raised sits
    * lower, and adopting a point beyond 2^c.level would break its
    * descendant radius, which the search prunes with.
    */
  @annotation.tailrec
  private def insertRec(q: Node, p: T, idx: Int, dq: Double): Unit = {
    if (dq == 0.0) { q.duplicates ::= idx; return }
    var it    = q.children
    var best: Node = null
    var bestD = Double.PositiveInfinity
    while (it.nonEmpty) {
      val c      = it.head
      val radius = Math.scalb(1.0, c.level)
      val d      = metric.distWithin(p, c.point, radius)
      if (d <= radius && d < bestD) { best = c; bestD = d }
      it = it.tail
    }
    if (best != null) insertRec(best, p, idx, bestD)
    else {
      val child = new Node(p, idx, q.level - 1)
      q.children ::= child
    }
  }

  /** Nearest neighbor of `query`: (carrier id, distance); exact. */
  def nearest(query: T): (Int, Double) = nearestWithin(query, Double.PositiveInfinity)

  /** Nearest neighbor with early abandoning: exact result if the true NN
    * distance ≤ cutoff, otherwise may return any (idx, d) with d > cutoff.
    * Best-first search with the 2^(level+1) descendant-radius bound: a node
    * whose distance minus that radius reaches min(best, cutoff) is pruned,
    * so each distance is evaluated within min(best, cutoff) + 2^(level+1).
    * Used by the BCP merge step where only distances ≤ ε matter.
    */
  def nearestWithin(query: T, cutoff: Double): (Int, Double) = {
    require(root != null, "nearest() on empty cover tree")
    var bestIdx  = root.idx
    var bestDist = metric.distWithin(query, root.point, cutoff + Math.scalb(1.0, root.level + 1))
    // Min-heap on optimistic bound d(query, node) - 2^(node.level+1).
    implicit val ord: Ordering[(Double, Double, Node)] = Ordering.by(-_._1)
    val pq = mutable.PriorityQueue.empty[(Double, Double, Node)]
    pq.enqueue((bestDist - Math.scalb(1.0, root.level + 1), bestDist, root))
    while (pq.nonEmpty) {
      val (b, d, node) = pq.dequeue()
      if (b >= math.min(bestDist, cutoff)) return (bestIdx, bestDist) // heap is bound-sorted: done
      if (d < bestDist) { bestDist = d; bestIdx = node.idx }
      var it = node.children
      while (it.nonEmpty) {
        val c      = it.head
        val radius = Math.scalb(1.0, c.level + 1)
        val dc     = metric.distWithin(query, c.point, math.min(bestDist, cutoff) + radius)
        if (dc < bestDist) { bestDist = dc; bestIdx = c.idx }
        val bc = dc - radius
        if (bc < math.min(bestDist, cutoff)) pq.enqueue((bc, dc, c))
        it = it.tail
      }
    }
    (bestIdx, bestDist)
  }
}

object CoverTree {

  /** Build a cover tree over `ids`, where `points(id)` is the payload. */
  def build[T](points: IndexedSeq[T], ids: Iterable[Int], metric: Metric[T]): CoverTree[T] = {
    val t = new CoverTree[T](metric)
    ids.foreach(i => t.insert(points(i), i))
    t
  }
}
