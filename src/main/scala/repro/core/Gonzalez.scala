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
  * @param pairs       the center pairs the run evaluated within its
  *                    `keepWithin` threshold, if it kept any
  */
final case class GonzalezResult(
    centerIdx: IndexedSeq[Int],
    assignment: Array[Int],
    distToCenter: Array[Double],
    coverSets: IndexedSeq[Array[Int]],
    pairs: Option[CenterPairs] = None
) {
  def numCenters: Int = centerIdx.length

  /** Covering radius max_p dis(p, E) actually achieved (≤ r̄ on return,
    * unless a `maxCenters` cap stopped the run early).
    */
  def coveringRadius: Double = if (distToCenter.isEmpty) 0.0 else distToCenter.max
}

/** Center pairs within `within`: for every center position e, `nbr(e)`
  * lists in ascending order the positions e′ with dis(e, e′) ≤ within, e
  * itself included, and `dist(e)` holds those distances, each exact.
  */
final case class CenterPairs(within: Double, nbr: IndexedSeq[Array[Int]], dist: IndexedSeq[Array[Double]]) {

  /** For every center position, the positions within `threshold`, in
    * ascending order (the paper's A_p at that threshold). No distance call.
    */
  def filter(threshold: Double): IndexedSeq[Array[Int]] = {
    require(threshold <= within, s"threshold $threshold exceeds the stored pairs' $within")
    if (threshold == within) nbr
    else nbr.indices.map { e =>
      val out = Array.newBuilder[Int]
      var j   = 0
      while (j < dist(e).length) { if (dist(e)(j) <= threshold) out += nbr(e)(j); j += 1 }
      out.result()
    }
  }
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
  *
  * *Center pairs.* Every pair of centers is evaluated exactly once, when the
  * later one is chosen. With a `keepWithin` threshold that evaluation is
  * bounded at max(2·rad(e), keepWithin) instead of 2·rad(e): the skip
  * decision is the same, and every pair within keepWithin comes back exact
  * and is kept. So the A_p sets of Algorithm 1 (eq. (1) at 2r̄+ε, eq. (13)
  * at 4r̄+ε) cost no further distance call.
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
    * @param keepWithin keep the center pairs within this distance in
    *                   `GonzalezResult.pairs` (default: keep none)
    */
  def run[T](
      points: IndexedSeq[T],
      metric: Metric[T],
      rBar: Double,
      seedIdx: Int = 0,
      maxCenters: Int = Int.MaxValue,
      keepWithin: Double = Double.NegativeInfinity
  ): GonzalezResult = {
    require(rBar > 0, s"rBar must be positive, got $rBar")
    require(points.nonEmpty, "empty input")
    require(maxCenters >= 1, s"maxCenters must be positive, got $maxCenters")
    require(!keepWithin.isNaN, "keepWithin is NaN")
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
    val pairs   = if (keepWithin >= 0) new PairLists(cap) else null

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
          val d = metric.distWithin(c, points(centers(e)), math.max(2 * rad(e), keepWithin))
          if (d <= keepWithin) { pairs.add(k, e, d); pairs.add(e, k, d) }
          val half = d / 2
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
      if (pairs != null) pairs.add(k, k, 0.0)
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
    GonzalezResult(centers.toIndexedSeq, assignment, dists, sets,
      Option(pairs).map(_.result(centers.length, keepWithin)))
  }

  /** Per-center lists of (position, distance) pairs, grown as pairs arrive.
    * Each list stays ascending when pairs are added in order of their later
    * center, with a center's own entry after the earlier centers'.
    */
  private final class PairLists(cap: Int) {
    private val nbr  = new Array[Array[Int]](cap)
    private val dist = new Array[Array[Double]](cap)
    private val size = new Array[Int](cap)

    def add(e: Int, other: Int, d: Double): Unit = {
      val s = size(e)
      if (nbr(e) == null) { nbr(e) = new Array[Int](4); dist(e) = new Array[Double](4) }
      else if (s == nbr(e).length) { nbr(e) = Arrays.copyOf(nbr(e), 2 * s); dist(e) = Arrays.copyOf(dist(e), 2 * s) }
      nbr(e)(s) = other
      dist(e)(s) = d
      size(e) = s + 1
    }

    def result(k: Int, within: Double): CenterPairs =
      CenterPairs(within, IndexedSeq.tabulate(k)(e => Arrays.copyOf(nbr(e), size(e))),
        IndexedSeq.tabulate(k)(e => Arrays.copyOf(dist(e), size(e))))
  }

  /** The net a DBSCAN run works on and its wall time in ns: `precomputed`
    * when given (re-tuning on a reused net, Remark 5), else a fresh run at r̄
    * that keeps the center pairs within `keepWithin`.
    * A precomputed net must cover X at r̄ — one that a `maxCenters` cap
    * stopped early does not, and every guarantee built on it would fail
    * silently — so it is rejected.
    */
  private[core] def netFor[T](
      points: IndexedSeq[T],
      metric: Metric[T],
      rBar: Double,
      precomputed: Option[(GonzalezResult, Long)],
      keepWithin: Double
  ): (GonzalezResult, Long) = precomputed match {
    case Some((res, ns)) =>
      require(res.coveringRadius <= rBar,
        s"precomputed net covers at radius ${res.coveringRadius}, not at r̄ = $rBar " +
          "(a net capped by maxCenters is not a cover)")
      (res, ns)
    case None =>
      val t0 = System.nanoTime()
      val res = run(points, metric, rBar, keepWithin = keepWithin)
      (res, System.nanoTime() - t0)
  }

  /** The center pairs within at least `threshold`: the net's own pairs when
    * it kept them that far, else every pair evaluated within `threshold` —
    * O(|E|²) distance calls, needed only for a net built without pairs or a
    * threshold above the kept one (a re-tune at a larger ε′ on a reused net).
    */
  def centerPairs[T](
      points: IndexedSeq[T],
      metric: Metric[T],
      res: GonzalezResult,
      threshold: Double
  ): CenterPairs = res.pairs match {
    case Some(kept) if threshold <= kept.within => kept
    case _ =>
      val k     = res.numCenters
      val cs    = res.centerIdx.map(points)
      val lists = new PairLists(k)
      var i = 0
      while (i < k) {
        lists.add(i, i, 0.0)
        var j = i + 1
        while (j < k) {
          val d = metric.distWithin(cs(i), cs(j), threshold)
          if (d <= threshold) { lists.add(i, j, d); lists.add(j, i, d) }
          j += 1
        }
        i += 1
      }
      lists.result(k, threshold)
  }

  /** Neighbor-ball center sets: for every center position e, the positions
    * e' with dis(e, e') ≤ threshold, in ascending order (the paper's A_p,
    * eq. (1) with threshold 2r̄+ε for the exact algorithm, eq. (13) with
    * 4r̄+ε for Algorithm 2). A center is always a neighbor of itself. Read
    * from the pairs the net kept, with no distance call; O(|E|²) calls only
    * in [[centerPairs]]'s fallback.
    */
  def neighborSets[T](
      points: IndexedSeq[T],
      metric: Metric[T],
      res: GonzalezResult,
      threshold: Double
  ): IndexedSeq[Array[Int]] = centerPairs(points, metric, res, threshold).filter(threshold)

  /** Whether p, a member of C_e, has at least `minPts` points of X within ε:
    * counted in C_e first, then in the other balls of `near`, stopping at
    * `minPts`. `near` must hold every ball that can contain an ε-neighbor of
    * p; by Lemma 2 the balls within 2r̄+ε of e do.
    */
  private[core] def reachesMinPts[T](
      points: IndexedSeq[T],
      metric: Metric[T],
      res: GonzalezResult,
      near: Array[Int],
      p: Int,
      e: Int,
      eps: Double,
      minPts: Int
  ): Boolean = {
    val pp  = points(p)
    var cnt = 0
    def countIn(b: Int): Unit = {
      val cn = res.coverSets(b)
      var j  = 0
      while (j < cn.length && cnt < minPts) {
        if (metric.distWithin(pp, points(cn(j)), eps) <= eps) cnt += 1
        j += 1
      }
    }
    countIn(e)
    var a = 0
    while (a < near.length && cnt < minPts) {
      if (near(a) != e) countIn(near(a))
      a += 1
    }
    cnt >= minPts
  }
}
