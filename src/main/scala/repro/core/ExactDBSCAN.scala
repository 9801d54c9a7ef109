package repro.core

/** Exact metric DBSCAN (Section 3.1 of the paper).
  *
  * Pipeline:
  *   0. Pre-process with radius-guided Gonzalez (Algorithm 1) at r̄ = ε/2,
  *      yielding the ε/2-net E, cover sets C_e and neighbor sets A_e
  *      (threshold 2r̄ + ε, eq. (1)).
  *   1. *Label core points*: every member of a dense ball (|C_e| ≥ MinPts)
  *      is core by the triangle inequality (C_{c_p} ⊆ B(p, ε)); members of
  *      sparse balls count their ε-neighborhood inside ∪_{e'∈A_e} C_{e'}
  *      only (Lemma 2 licenses the restriction).
  *   2. *Merge*: per-ball core sets C̃_e merge iff their bichromatic closest
  *      pair distance ≤ ε; each BCP instance is solved with a cover tree
  *      over C̃_e and NN queries from C̃_{e'}; connectivity via union-find.
  *   3. *Border/outlier*: a non-core point is a border point of the cluster
  *      of its nearest core point within ε (searched in A_p's cover trees),
  *      otherwise an outlier.
  *
  * `Timings` exposes the phase breakdown consumed by the Table 2 experiment.
  */
object ExactDBSCAN {

  /** Wall-clock phase breakdown, nanoseconds. */
  final case class Timings(gonzalezNs: Long, labelNs: Long, mergeNs: Long, assignNs: Long) {
    def totalNs: Long = gonzalezNs + labelNs + mergeNs + assignNs
    def gonzalezFraction: Double = if (totalNs == 0) 0.0 else gonzalezNs.toDouble / totalNs
  }

  final case class Output(result: DBSCANResult, timings: Timings, numCenters: Int)

  /** Run exact DBSCAN.
    *
    * @param rBarOpt override for r̄ (must be ≤ ε/2 — Remark 5); defaults to ε/2.
    * @param precomputed reuse of a prior Gonzalez run (with its wall time) —
    *        this is the paper's parameter-tuning trick (Remark 5): Algorithm 1
    *        need not be re-run when ε grows or MinPts changes.
    */
  def run[T](
      points: IndexedSeq[T],
      metric: Metric[T],
      eps: Double,
      minPts: Int,
      rBarOpt: Option[Double] = None,
      precomputed: Option[(GonzalezResult, Long)] = None
  ): Output = {
    require(eps > 0 && minPts >= 1)
    val rBar = rBarOpt.getOrElse(eps / 2.0)
    require(rBar <= eps / 2.0 + 1e-12, s"rBar=$rBar must be ≤ ε/2=${eps / 2}")
    val n = points.length

    val (g, gonzalezNs) = Gonzalez.netFor(points, metric, rBar, precomputed)
    val k = g.numCenters

    // ---- Step 1: label core points -------------------------------------
    val t1      = System.nanoTime()
    val A       = Gonzalez.neighborSets(points, metric, g, 2 * rBar + eps)
    val isCore  = new Array[Boolean](n)
    var e = 0
    while (e < k) {
      val ce = g.coverSets(e)
      if (ce.length >= minPts) {
        // Dense ball: C_e ⊆ B(p, ε) for every p ∈ C_e, so all are core.
        var i = 0
        while (i < ce.length) { isCore(ce(i)) = true; i += 1 }
      } else {
        // Sparse ball: count ε-neighbors inside the A_e-restricted region.
        var i = 0
        while (i < ce.length) {
          val p   = ce(i)
          val pp  = points(p)
          var cnt = 0
          var a   = 0
          var done = false
          while (a < A(e).length && !done) {
            val ne = A(e)(a)
            val cn = g.coverSets(ne)
            var j  = 0
            while (j < cn.length && !done) {
              if (metric.distWithin(pp, points(cn(j)), eps) <= eps) {
                cnt += 1
                if (cnt >= minPts) done = true
              }
              j += 1
            }
            a += 1
          }
          isCore(p) = cnt >= minPts
          i += 1
        }
      }
      e += 1
    }
    val labelNs = System.nanoTime() - t1

    // ---- Step 2: merge core points via per-ball BCP --------------------
    val t2        = System.nanoTime()
    val coreSets  = Array.tabulate(k)(e => g.coverSets(e).filter(isCore))
    val trees     = new Array[CoverTree[T]](k)
    e = 0
    while (e < k) {
      if (coreSets(e).nonEmpty) trees(e) = CoverTree.build(points, coreSets(e), metric)
      e += 1
    }
    val uf = new UnionFind(k)
    e = 0
    while (e < k) {
      if (coreSets(e).nonEmpty) {
        var a = 0
        while (a < A(e).length) {
          val ne = A(e)(a)
          if (ne > e && coreSets(ne).nonEmpty && !uf.connected(e, ne)) {
            // BCP(C̃_e, C̃_ne): query each point of the smaller set against
            // the other's cover tree, early-abandoned at ε.
            val (qs, tree) =
              if (coreSets(e).length <= coreSets(ne).length) (coreSets(e), trees(ne))
              else (coreSets(ne), trees(e))
            var i      = 0
            var merged = false
            while (i < qs.length && !merged) {
              val (_, d) = tree.nearestWithin(points(qs(i)), eps)
              if (d <= eps) { uf.union(e, ne); merged = true }
              i += 1
            }
          }
          a += 1
        }
      }
      e += 1
    }
    // Cluster id per ball (only balls holding core points get one).
    val ballCluster = Array.fill(k)(DBSCANResult.Noise)
    val idMap       = scala.collection.mutable.HashMap.empty[Int, Int]
    e = 0
    while (e < k) {
      if (coreSets(e).nonEmpty) ballCluster(e) = idMap.getOrElseUpdate(uf.find(e), idMap.size)
      e += 1
    }
    val mergeNs = System.nanoTime() - t2

    // ---- Step 3: border points and outliers -----------------------------
    val t3     = System.nanoTime()
    val labels = Array.fill(n)(DBSCANResult.Noise)
    val types  = Array.fill(n)(PointType.Outlier)
    var p = 0
    while (p < n) {
      if (isCore(p)) {
        labels(p) = ballCluster(g.assignment(p))
        types(p)  = PointType.Core
      }
      p += 1
    }
    p = 0
    while (p < n) {
      if (!isCore(p)) {
        val e0    = g.assignment(p)
        val pp    = points(p)
        var best  = Double.PositiveInfinity
        var bestE = -1
        var a     = 0
        while (a < A(e0).length) {
          val ne = A(e0)(a)
          if (trees(ne) != null) {
            val (_, d) = trees(ne).nearestWithin(pp, eps)
            if (d < best) { best = d; bestE = ne }
          }
          a += 1
        }
        if (best <= eps) {
          labels(p) = ballCluster(bestE)
          types(p)  = PointType.Border
        }
      }
      p += 1
    }
    val assignNs = System.nanoTime() - t3

    Output(DBSCANResult(labels, types), Timings(gonzalezNs, labelNs, mergeNs, assignNs), k)
  }
}
