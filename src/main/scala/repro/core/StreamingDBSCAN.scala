package repro.core

import scala.collection.mutable.ArrayBuffer

/** Streaming ρ-approximate DBSCAN (Algorithm 3) — three passes over the
  * stream, memory O((Δ/ρε)^D + z) independent of n.
  *
  * Pass 1 (incremental net construction): each arriving point joins the first
  * existing ball within r̄ = ρε/2 or opens a new ball; per-ball counters of
  * "points seen within ε" promote ball centers to core (→ S*); points whose
  * ball center is not (yet) known to be core are buffered in M. A ball's
  * buffer is dropped the moment its center turns core, and since every C_e
  * member is within r̄ ≤ ε of e, a non-core ball holds < MinPts buffered
  * points — this is what bounds |M|.
  *
  * Pass 2: re-scan the stream to count exact ε-neighborhoods of the buffered
  * M-points; those that are core join S*. S* (core centers and core
  * M-points, ball by ball) is then merged offline at (1+ρ)ε by the
  * [[Summary]] `ApproxDBSCAN` uses too (Algorithm 2 line 9), searching every
  * ball, since the stream keeps no A_e sets.
  *
  * Pass 3: re-scan to label every point by `Summary.label` from its first
  * ball within r̄ (Algorithm 2 lines 10–20); a point in no ball searches all
  * of S*.
  *
  * The class is batch-incremental: feed any number of chunks to
  * [[observePass1]]/[[observePass2]]/[[labelPass3]]; this is the engine under
  * the Structured Streaming driver in `repro.spark`.
  */
final class StreamingDBSCAN[T: scala.reflect.ClassTag](
    metric: Metric[T],
    eps: Double,
    minPts: Int,
    rho: Double
) extends Serializable {
  require(eps > 0 && minPts >= 1)
  ApproxDBSCAN.requireRho(rho)
  val rBar: Double = rho * eps / 2.0

  // ---- state --------------------------------------------------------------
  private val centers      = ArrayBuffer.empty[T]       // E
  private val epsCount     = ArrayBuffer.empty[Int]     // |B(e, ε)| seen so far
  private val centerCore   = ArrayBuffer.empty[Boolean] // e promoted to core?
  private val buffers      = ArrayBuffer.empty[ArrayBuffer[T]] // M, bucketed by ball
  private var pass1Done    = false
  private var pass2Started = false
  // After pass 2 / merge:
  private var mCandidates: Array[T] = _ // M, ball by ball
  private var mCounts: Array[Int]   = _
  private var summary: Summary[T]   = _

  def numBalls: Int = centers.length

  /** |E| + |M| — the memory footprint the paper plots in Figure 6. */
  def memoryFootprint: Int = centers.length + buffers.iterator.map(_.length).sum

  // ---- Pass 1 ---------------------------------------------------------------
  /** Feed a chunk of the stream to pass 1. */
  def observePass1(chunk: IterableOnce[T]): Unit = {
    require(!pass1Done, "pass 1 already finished")
    chunk.iterator.foreach { p =>
      var assigned = -1
      var e        = 0
      val k        = centers.length
      while (e < k) {
        // Exact up to ε, which covers both tests (r̄ = ρε/2 ≤ ε).
        val d = metric.distWithin(p, centers(e), eps)
        if (d <= eps) {
          epsCount(e) += 1
          if (!centerCore(e) && epsCount(e) >= minPts) {
            centerCore(e) = true
            buffers(e).clear() // ball went dense: its members need no pass-2 check
          }
        }
        if (assigned < 0 && d <= rBar) assigned = e
        e += 1
      }
      if (assigned < 0) {
        // New ball centered at p. The center itself counts toward its ball.
        centers += p
        epsCount += 1
        centerCore += (minPts <= 1)
        buffers += ArrayBuffer.empty[T]
        assigned = centers.length - 1
      }
      if (!centerCore(assigned)) buffers(assigned) += p
    }
  }

  /** Finish pass 1: prune buffers of balls that turned core late. */
  def finishPass1(): Unit = {
    if (pass1Done) return
    pass1Done = true
    var e = 0
    while (e < centers.length) {
      if (centerCore(e)) buffers(e).clear()
      e += 1
    }
  }

  // ---- Pass 2 ---------------------------------------------------------------
  /** Feed a chunk of the (re-scanned) stream to pass 2: exact ε-neighborhood
    * counting for the buffered M-candidates.
    */
  def observePass2(chunk: IterableOnce[T]): Unit = {
    require(pass1Done, "finishPass1() first")
    if (!pass2Started) startPass2()
    chunk.iterator.foreach { q =>
      var i = 0
      while (i < mCandidates.length) {
        if (metric.distWithin(q, mCandidates(i), eps) <= eps) mCounts(i) += 1
        i += 1
      }
    }
  }

  private def startPass2(): Unit = {
    pass2Started = true
    mCandidates = buffers.iterator.flatMap(_.iterator).toArray
    mCounts     = new Array[Int](mCandidates.length)
  }

  /** Close pass 2 and merge S* offline at (1+ρ)ε (Algorithm 2 line 9). S* is
    * laid out ball by ball: a core center, or its ball's core M points.
    */
  def mergeSummary(): Unit = {
    require(pass1Done, "finishPass1() first")
    if (summary != null) return
    if (!pass2Started) startPass2()
    val k     = centers.length
    val start = new Array[Int](k + 1)
    val pts   = ArrayBuffer.empty[T]
    var i     = 0
    var e     = 0
    while (e < k) {
      start(e) = pts.length
      if (centerCore(e)) pts += centers(e)
      buffers(e).foreach { p => if (mCounts(i) >= minPts) pts += p; i += 1 }
      e += 1
    }
    start(k) = pts.length
    summary = new Summary(pts, start, centerCore.toArray, Summary.everyBall(k), metric, eps, rho)
    summary.merge()
  }

  def summarySize: Int = { require(summary != null, "mergeSummary() first"); summary.size }

  // ---- Pass 3 ---------------------------------------------------------------
  /** Label a chunk of the (re-scanned) stream: cluster id or Noise per point. */
  def labelPass3(chunk: IterableOnce[T]): Iterator[Int] = {
    require(summary != null, "mergeSummary() first")
    chunk.iterator.map { p =>
      // c_p = first ball within r̄, matching the pass-1 assignment rule;
      // a point pass 1 never saw may lie in none (c_p = −1).
      var cp = -1
      var e  = 0
      while (e < centers.length && cp < 0) {
        if (metric.distWithin(p, centers(e), rBar) <= rBar) cp = e
        e += 1
      }
      summary.label(p, cp)
    }
  }
}

object StreamingDBSCAN {

  /** Convenience: run all three passes over an in-memory dataset, re-scanning
    * it once per pass exactly as a bounded stream would be replayed.
    */
  def runBatch[T: scala.reflect.ClassTag](
      points: IndexedSeq[T],
      metric: Metric[T],
      eps: Double,
      minPts: Int,
      rho: Double,
      chunkSize: Int = 1024
  ): (Array[Int], StreamingDBSCAN[T]) = {
    val s = new StreamingDBSCAN[T](metric, eps, minPts, rho)
    points.grouped(chunkSize).foreach(s.observePass1)
    s.finishPass1()
    points.grouped(chunkSize).foreach(s.observePass2)
    s.mergeSummary()
    val labels = points.grouped(chunkSize).flatMap(s.labelPass3).toArray
    (labels, s)
  }
}
