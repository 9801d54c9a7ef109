package repro.core

/** The core-point summary S* and Algorithm 2's back half (lines 9–20): the
  * merge of S* at (1+ρ)ε and the labeling of every other point from it.
  * `ApproxDBSCAN`, `StreamingDBSCAN` (Algorithm 3) and
  * `repro.spark.DistributedApproxDBSCAN` all build one and call it.
  *
  * S* is laid out ball by ball: the points of ball e are the positions
  * start(e) until start(e + 1), and when e's center is core
  * (`centerCore(e)`) it is the first of them. `near(e)` lists, in ascending
  * order, the balls whose S* points the merge and the labeling search from a
  * point of ball e. `ApproxDBSCAN` passes its A_e at 4r̄ + ε, which holds
  * every ball that can have an S* point within (1+ρ)ε of a member of C_e;
  * drivers without A_e pass every ball (one array shared by all e), which
  * costs no distance call.
  *
  * Call [[merge]] once before [[label]] or [[clusterAt]].
  */
final class Summary[T](
    points: Iterable[T],
    start: Array[Int],
    centerCore: Array[Boolean],
    near: IndexedSeq[Array[Int]],
    metric: Metric[T],
    eps: Double,
    rho: Double
) extends Serializable {
  private val pts: Array[Any]           = points.toArray[Any]
  private val nearOf: Array[Array[Int]] = near.toArray
  private var cluster: Array[Int]       = _
  require(start.length == centerCore.length + 1 && nearOf.length == centerCore.length &&
    start.last == pts.length, "start needs one entry per ball plus the end, near one per ball")

  def size: Int = pts.length

  /** Cluster id of S* point `i`. */
  def clusterAt(i: Int): Int = cluster(i)

  /** Merge S* at (1+ρ)ε (Algorithm 2 line 9): a pair of S* points is
    * compared when one's ball lists the other's in `near`.
    */
  def merge(): Unit = {
    val uf = new UnionFind(pts.length)
    val r  = (1.0 + rho) * eps
    var e  = 0
    while (e < nearOf.length) {
      val balls = nearOf(e)
      var si    = start(e)
      while (si < start(e + 1)) {
        val s = pts(si).asInstanceOf[T]
        var a = 0
        while (a < balls.length) {
          val b  = balls(a)
          var sj = math.max(si + 1, start(b))
          while (sj < start(b + 1)) {
            if (!uf.connected(si, sj) && metric.distWithin(s, pts(sj).asInstanceOf[T], r) <= r) uf.union(si, sj)
            sj += 1
          }
          a += 1
        }
        si += 1
      }
      e += 1
    }
    cluster = uf.componentIds
  }

  /** Label of a point p outside S* whose ball is `cp` (Algorithm 2 lines
    * 10–20): c_p's cluster when c_p ∈ S*, else the cluster of the first S*
    * point within (1+ρ/2)ε in the balls `near(cp)`, else Noise. A point in
    * no ball (`cp < 0`) searches all of S*.
    */
  def label(p: T, cp: Int): Int = {
    if (cp >= 0 && centerCore(cp)) return cluster(start(cp))
    val r     = (1.0 + rho / 2.0) * eps
    var found = -1
    if (cp < 0) found = firstWithin(p, 0, pts.length, r)
    else {
      val balls = nearOf(cp)
      var a     = 0
      while (a < balls.length && found < 0) {
        found = firstWithin(p, start(balls(a)), start(balls(a) + 1), r)
        a += 1
      }
    }
    if (found >= 0) cluster(found) else DBSCANResult.Noise
  }

  /** First position in [from, until) within r of p, or −1. */
  private def firstWithin(p: T, from: Int, until: Int, r: Double): Int = {
    var i = from
    while (i < until) {
      if (metric.distWithin(p, pts(i).asInstanceOf[T], r) <= r) return i
      i += 1
    }
    -1
  }
}

object Summary {

  /** The `near` list of a driver without A_e: every ball, shared by all. */
  def everyBall(k: Int): IndexedSeq[Array[Int]] = {
    val all = Array.range(0, k)
    IndexedSeq.fill(k)(all)
  }
}
