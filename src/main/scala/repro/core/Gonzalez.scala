package repro.core

import java.util.Arrays
import scala.collection.mutable.ArrayBuffer

/** Output of the radius-guided Gonzalez algorithm (Algorithm 1 of the paper).
  *
  * @param centerIdx   indices (into the input sequence) of the chosen centers E,
  *                    in selection order
  * @param assignment  for every point p, the *position* (0-based, into
  *                    `centerIdx`) of its closest center c_p
  * @param distToCenter dis(p, c_p) for every point
  * @param coverSets   position e ↦ the cover set C_e = { p | c_p = e }, as
  *                    point indices
  */
final case class GonzalezResult(
    centerIdx: IndexedSeq[Int],
    assignment: Array[Int],
    distToCenter: Array[Double],
    coverSets: IndexedSeq[Array[Int]]
) {
  def numCenters: Int = centerIdx.length

  /** Covering radius max_p dis(p, E) actually achieved (≤ r̄ on return,
    * unless a `maxCenters` cap stopped the run early).
    */
  def coveringRadius: Double = if (distToCenter.isEmpty) 0.0 else distToCenter.max
}

/** Radius-guided Gonzalez k-center (Algorithm 1).
  *
  * Iteratively adds the point farthest from the current center set E until
  * max_p dis(p, E) ≤ r̄. On return, E is an r̄-covering of X with pairwise
  * center distances > r̄ (an r̄-net up to the boundary case), and each point
  * carries its closest center and the cover sets C_e are materialized —
  * exactly the state the paper's DBSCAN steps consume.
  *
  * A new center c does not compare itself with all n points. The cover sets
  * are kept as member lists, each with its radius rad(e) = max_{i∈C_e} dis(i, e)
  * and its farthest member. After one evaluation of dis(c, e) per existing
  * center e, the triangle inequality dis(c, i) ≥ dis(c, e) − dis(i, e) rules
  * out two kinds of work (the pruning Elkan, ICML 2003, applies to k-means):
  *   - the whole set C_e is skipped if dis(c, e) ≥ 2·rad(e);
  *   - otherwise a member i is skipped if dis(c, e) ≥ 2·dis(i, e).
  * A skipped point has dis(c, i) ≥ dis(i, e), so the strict `<` update of the
  * full scan could not move it to c. Every point that is not skipped gets
  * `metric.distWithin(point, c, dis(i))`, exact wherever the full scan's
  * `metric.dist(point, c)` could win the strict `<` (see [[Metric]]), and
  * dis(c, e) is evaluated within 2·rad(e), past which C_e is skipped. The next
  * center is the largest rad(e), ties going to the lowest point index — the
  * full scan's own argmax rule. So the output equals the full scan's in
  * every field, ties between integer distances included; only the number of
  * distance evaluations falls. (The argument is exact real arithmetic: with
  * rounded distances the two could differ only for a point at an exact
  * midpoint of c and e, at the last bit of its distance.)
  */
object Gonzalez {

  /** Run Algorithm 1.
    *
    * @param points the dataset X
    * @param metric distance function
    * @param rBar   the radius upper bound r̄ (> 0)
    * @param seedIdx index of the arbitrary first center p0 (default 0)
    * @param maxCenters safety valve on |E| (default unbounded) — the paper's
    *                   bound is O((Δ/r̄)^D + z) but adversarial data could
    *                   blow up; callers may cap. A capped run may stop before
    *                   E covers X at r̄ (see `GonzalezResult.coveringRadius`).
    */
  def run[T](
      points: IndexedSeq[T],
      metric: Metric[T],
      rBar: Double,
      seedIdx: Int = 0,
      maxCenters: Int = Int.MaxValue
  ): GonzalezResult = {
    require(rBar > 0, s"rBar must be positive, got $rBar")
    require(points.nonEmpty, "empty input")
    require(maxCenters >= 1, s"maxCenters must be positive, got $maxCenters")
    val n          = points.length
    val cap        = math.min(n, maxCenters)
    val assignment = new Array[Int](n)
    val dists      = Array.fill(n)(Double.PositiveInfinity)
    val centers    = ArrayBuffer.empty[Int]
    // Per center position e: C_e is members(e)(0 until size(e)), in no
    // particular order; rad(e) is its largest distance and far(e) the lowest
    // member index at that distance (-1 while rad(e) = 0).
    val members = new Array[Array[Int]](cap)
    val size    = new Array[Int](cap)
    val rad     = new Array[Double](cap)
    val far     = new Array[Int](cap)
    val taken   = new Array[Int](n) // points the new center takes over

    def setRadius(e: Int): Unit = {
      val m = members(e)
      var r = 0.0
      var f = -1
      var j = 0
      while (j < size(e)) {
        val i = m(j)
        if (dists(i) > r || (dists(i) == r && i < f)) { r = dists(i); f = i }
        j += 1
      }
      rad(e) = r
      far(e) = f
    }

    var next = seedIdx
    var dmax = Double.PositiveInfinity
    while (dmax > rBar && centers.length < cap) {
      val k = centers.length
      val c = points(next)
      centers += next
      var cnt = 0
      if (k == 0) {
        // The first center is the closest center of every point.
        var i = 0
        while (i < n) {
          val d = metric.dist(points(i), c)
          if (d < dists(i)) dists(i) = d
          taken(i) = i
          i += 1
        }
        cnt = n
      } else {
        var e = 0
        while (e < k) {
          val half = metric.distWithin(c, points(centers(e)), 2 * rad(e)) / 2
          // Negated tests throughout, so a NaN distance prunes nothing.
          if (!(rad(e) <= half)) {
            // Relax the members of C_e that c may be closer to; the ones that
            // stay are compacted to the front of the list.
            val m = members(e)
            val s = size(e)
            var kept = 0
            var j    = 0
            while (j < s) {
              val i     = m(j)
              var moved = false
              if (!(dists(i) <= half)) {
                val d = metric.distWithin(points(i), c, dists(i))
                if (d < dists(i)) {
                  dists(i) = d
                  assignment(i) = k
                  taken(cnt) = i
                  cnt += 1
                  moved = true
                }
              }
              if (!moved) { m(kept) = i; kept += 1 }
              j += 1
            }
            if (kept < s) {
              size(e) = kept
              setRadius(e)
              if (kept < m.length / 4) members(e) = Arrays.copyOf(m, kept)
            }
          }
          e += 1
        }
      }
      members(k) = Arrays.copyOf(taken, cnt)
      size(k) = cnt
      setRadius(k)
      // The next center is the farthest point, the lowest index among ties.
      dmax = 0.0
      next = -1
      var e = 0
      while (e <= k) {
        if (rad(e) > dmax || (rad(e) == dmax && far(e) < next)) { dmax = rad(e); next = far(e) }
        e += 1
      }
    }

    val sets = IndexedSeq.tabulate(centers.length) { e =>
      val s = Arrays.copyOf(members(e), size(e))
      Arrays.sort(s)
      s
    }
    GonzalezResult(centers.toIndexedSeq, assignment, dists, sets)
  }

  /** The net a DBSCAN run works on and its wall time in ns: `precomputed`
    * when given (re-tuning on a reused net, Remark 5), else a fresh run at r̄.
    * A precomputed net must cover X at r̄ — one that a `maxCenters` cap
    * stopped early does not, and every guarantee built on it would fail
    * silently — so it is rejected.
    */
  private[core] def netFor[T](
      points: IndexedSeq[T],
      metric: Metric[T],
      rBar: Double,
      precomputed: Option[(GonzalezResult, Long)]
  ): (GonzalezResult, Long) = precomputed match {
    case Some((res, ns)) =>
      require(res.coveringRadius <= rBar,
        s"precomputed net covers at radius ${res.coveringRadius}, not at r̄ = $rBar " +
          "(a net capped by maxCenters is not a cover)")
      (res, ns)
    case None =>
      val t0 = System.nanoTime()
      val res = run(points, metric, rBar)
      (res, System.nanoTime() - t0)
  }

  /** Neighbor-ball center sets: for every center position e, the positions
    * e' with dis(e, e') ≤ threshold (the paper's A_p, eq. (1) with threshold
    * 2r̄+ε for the exact algorithm, eq. (13) with 4r̄+ε for Algorithm 2).
    * A center is always a neighbor of itself. O(|E|²) distance evaluations —
    * |E| is summary-sized.
    */
  def neighborSets[T](
      points: IndexedSeq[T],
      metric: Metric[T],
      res: GonzalezResult,
      threshold: Double
  ): IndexedSeq[Array[Int]] = {
    val k  = res.numCenters
    val cs = res.centerIdx.map(points)
    val out = Array.fill(k)(ArrayBuffer.empty[Int])
    var i = 0
    while (i < k) {
      out(i) += i
      var j = i + 1
      while (j < k) {
        if (metric.distWithin(cs(i), cs(j), threshold) <= threshold) { out(i) += j; out(j) += i }
        j += 1
      }
      i += 1
    }
    out.map(_.toArray.sorted).toIndexedSeq
  }
}
