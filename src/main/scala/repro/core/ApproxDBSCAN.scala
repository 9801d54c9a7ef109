package repro.core

/** ρ-approximate metric DBSCAN via a core-point summary (Algorithm 2).
  *
  * Pipeline with r̄ = ρε/2 (so the net is much coarser than the exact
  * algorithm's ε/2-net when ρ < 1):
  *   - radius-guided Gonzalez → E, C_e, and A_e with the enlarged threshold
  *     4r̄ + ε (eq. (13));
  *   - summary S*: for each e ∈ E, add e itself if e is a core point, else
  *     add every core member of C_e (Lemma 8: at most MinPts of them);
  *   - merge inside S* at radius (1+ρ)ε with search restricted to
  *     (∪_{e∈A_s} C_e) ∩ S* (Lemma 11);
  *   - label the rest: p inherits c_p's id if c_p ∈ S*, else the id of any
  *     s ∈ S* with dis(p, s) ≤ (1 + ρ/2)ε, else outlier.
  * The merge and the labeling are [[Summary]]'s, shared with the streaming
  * and Spark drivers.
  *
  * Output respects Definition 2 (Theorem 2): maximality + ρ-relaxed
  * connectivity, every core point in exactly one cluster.
  */
object ApproxDBSCAN {

  final case class Timings(gonzalezNs: Long, summaryNs: Long, mergeNs: Long, labelNs: Long) {
    def totalNs: Long = gonzalezNs + summaryNs + mergeNs + labelNs
    def gonzalezFraction: Double = if (totalNs == 0) 0.0 else gonzalezNs.toDouble / totalNs
  }

  final case class Output(
      result: DBSCANResult,
      timings: Timings,
      numCenters: Int,
      summarySize: Int
  )

  /** Lemma 8 needs r̄ = ρε/2 ≤ ε, i.e. ρ ≤ 2: it makes C_e ⊆ B(e, ε), on
    * which the dense-ball shortcut here and Algorithm 3's |M| bound rest.
    * Every ρ-approximate entry point checks it.
    */
  def requireRho(rho: Double): Unit =
    require(rho > 0 && rho <= 2, "rho ∈ (0, 2] (Lemma 8 needs r̄ = ρε/2 ≤ ε)")

  def run[T](
      points: IndexedSeq[T],
      metric: Metric[T],
      eps: Double,
      minPts: Int,
      rho: Double,
      precomputed: Option[(GonzalezResult, Long)] = None
  ): Output = {
    require(eps > 0 && minPts >= 1)
    requireRho(rho)
    val rBar = rho * eps / 2.0
    val n    = points.length

    val (g, gonzalezNs) = Gonzalez.netFor(points, metric, rBar, precomputed)
    val k = g.numCenters

    // ---- Build the summary S* -------------------------------------------
    val t1 = System.nanoTime()
    val A  = Gonzalez.neighborSets(points, metric, g, 4 * rBar + eps)

    /** |B(points(p), ε) ∩ X| restricted (safely, per Lemma 2) to A_e's region. */
    def neighborCount(p: Int, e: Int): Int = {
      val pp  = points(p)
      var cnt = 0
      var a   = 0
      while (a < A(e).length) {
        val cn = g.coverSets(A(e)(a))
        var j  = 0
        while (j < cn.length) {
          if (metric.distWithin(pp, points(cn(j)), eps) <= eps) cnt += 1
          j += 1
        }
        a += 1
      }
      cnt
    }

    val isCenterCore = new Array[Boolean](k)
    val ballStart    = new Array[Int](k + 1)
    val summary      = scala.collection.mutable.ArrayBuffer.empty[Int] // point indices, ball by ball
    var e = 0
    while (e < k) {
      ballStart(e) = summary.length
      val cIdx = g.centerIdx(e)
      // |C_e| ≥ MinPts ⇒ e is core without any distance evaluation
      // (C_e ⊆ B(e, r̄) ⊆ B(e, ε) since r̄ = ρε/2 ≤ ε for ρ ≤ 2).
      isCenterCore(e) =
        g.coverSets(e).length >= minPts || neighborCount(cIdx, e) >= minPts
      if (isCenterCore(e)) summary += cIdx
      else {
        val ce = g.coverSets(e)
        var i  = 0
        while (i < ce.length) {
          val p = ce(i)
          if (p != cIdx && neighborCount(p, e) >= minPts) summary += p
          i += 1
        }
      }
      e += 1
    }
    ballStart(k) = summary.length
    val sStar     = summary.toArray
    val inSummary = new Array[Boolean](n)
    sStar.foreach(inSummary(_) = true)
    val summaryNs = System.nanoTime() - t1

    // ---- Merge inside S* at (1+ρ)ε, searching A_s (Lemma 11) -------------
    val t2 = System.nanoTime()
    val s  = new Summary(summary.map(points), ballStart, isCenterCore, A, metric, eps, rho)
    s.merge()
    val mergeNs = System.nanoTime() - t2

    // ---- Label everything -------------------------------------------------
    val t3     = System.nanoTime()
    val labels = Array.fill(n)(DBSCANResult.Noise)
    val types  = Array.fill(n)(PointType.Outlier)
    var si = 0
    while (si < sStar.length) {
      labels(sStar(si)) = s.clusterAt(si)
      types(sStar(si))  = PointType.Core
      si += 1
    }
    var p = 0
    while (p < n) {
      if (!inSummary(p)) {
        labels(p) = s.label(points(p), g.assignment(p))
        if (labels(p) != DBSCANResult.Noise) types(p) = PointType.Border
      }
      p += 1
    }
    val labelNs = System.nanoTime() - t3

    Output(DBSCANResult(labels, types), Timings(gonzalezNs, summaryNs, mergeNs, labelNs), k, sStar.length)
  }
}
