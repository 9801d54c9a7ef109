package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Datasets

/** `Summary` is Algorithm 2's back half for all three drivers. Its merge
  * must give the partition of an all-pairs merge of S* at (1+ρ)ε, whether it
  * searches A_e or every ball, and its labeling must follow Algorithm 2
  * lines 10–20.
  */
class SummarySpec extends AnyFunSuite {
  import SummarySpec._
  import TestUtil._

  /** S* = every core point, ball by ball, a core center first. */
  private def build[T](pts: IndexedSeq[T], metric: Metric[T], eps: Double, minPts: Int, rho: Double,
                       everyBall: Boolean): Built[T] = {
    val rBar = rho * eps / 2
    val g    = Gonzalez.run(pts, metric, rBar)
    val k    = g.numCenters
    val core = pts.map(p => pts.count(q => metric.dist(p, q) <= eps) >= minPts)
    val centerCore = Array.tabulate(k)(e => core(g.centerIdx(e)))
    val start = new Array[Int](k + 1)
    val sStar = scala.collection.mutable.ArrayBuffer.empty[Int]
    for (e <- 0 until k) {
      start(e) = sStar.length
      if (centerCore(e)) sStar += g.centerIdx(e)
      sStar ++= g.coverSets(e).sorted.filter(i => core(i) && i != g.centerIdx(e))
    }
    start(k) = sStar.length
    val near = if (everyBall) Summary.everyBall(k) else Gonzalez.neighborSets(pts, metric, g, 4 * rBar + eps)
    val s    = new Summary(sStar.map(pts), start, centerCore, near, metric, eps, rho)
    s.merge()
    Built(s, sStar.toArray, g, centerCore)
  }

  /** Reference merge: every pair of S* points, in position order. */
  private def allPairsMerge[T](s: IndexedSeq[T], metric: Metric[T], r: Double): Array[Int] = {
    val uf = new UnionFind(s.length)
    for (a <- s.indices; b <- a + 1 until s.length if metric.dist(s(a), s(b)) <= r) uf.union(a, b)
    uf.componentIds
  }

  private val cases: Seq[Case[_]] =
    (for (seed <- 1 to 4; rho <- Seq(0.25, 0.5, 1.0, 2.0)) yield
      Case(s"blobs seed $seed rho $rho", blobs(220, 2, 3, outliers = 12, seed = 700 + seed),
        EuclideanMetric, 1.0, 5, rho)) ++
    (for (seed <- 1 to 3; rho <- Seq(0.5, 2.0)) yield
      Case(s"text seed $seed rho $rho", Datasets.text("t", 150, k = 4, seed = 40 + seed).points,
        EditDistanceMetric, 9.0, 5, rho))

  private def checkMerge[T](c: Case[T], everyBall: Boolean): Unit = {
    val b    = build(c.pts, c.metric, c.eps, c.minPts, c.rho, everyBall)
    val want = allPairsMerge(b.sStar.toIndexedSeq.map(c.pts), c.metric, (1 + c.rho) * c.eps)
    val got  = Array.tabulate(b.summary.size)(b.summary.clusterAt)
    assert(got.sameElements(want), s"${c.name}, everyBall = $everyBall")
  }

  private def checkLabels[T](c: Case[T], everyBall: Boolean): Unit = {
    val b      = build(c.pts, c.metric, c.eps, c.minPts, c.rho, everyBall)
    val pos    = b.sStar.zipWithIndex.toMap
    val assign = (1 + c.rho / 2) * c.eps
    for (p <- c.pts.indices if !pos.contains(p)) {
      val cp  = b.g.assignment(p)
      val got = b.summary.label(c.pts(p), cp)
      val where = s"${c.name}, everyBall = $everyBall, point $p"
      if (b.centerCore(cp)) assert(got == b.summary.clusterAt(pos(b.g.centerIdx(cp))), where)
      else {
        val within = b.sStar.indices.filter(i => c.metric.dist(c.pts(p), c.pts(b.sStar(i))) <= assign)
        if (within.isEmpty) assert(got == DBSCANResult.Noise, where)
        else assert(within.exists(b.summary.clusterAt(_) == got), where)
      }
    }
  }

  test("merge equals the all-pairs merge, with near = A_e and with near = every ball") {
    for (c <- cases; everyBall <- Seq(false, true)) checkMerge(c, everyBall)
  }

  test("label: c_p's cluster when c_p ∈ S*, else a cluster within (1+ρ/2)ε, else Noise") {
    for (c <- cases; everyBall <- Seq(false, true)) checkLabels(c, everyBall)
  }

  test("label of a point in no ball (c_p = −1) searches all of S*") {
    val pts = blobs(200, 2, 2, std = 0.3, seed = 711)
    val b   = build[Vec](pts, EuclideanMetric, 1.0, 5, 0.5, everyBall = true)
    for (i <- b.sStar.indices) assert(b.summary.label(pts(b.sStar(i)), -1) == b.summary.clusterAt(i))
    assert(b.summary.label(Array(1e6, 1e6), -1) == DBSCANResult.Noise)
  }
}

object SummarySpec {
  final case class Built[T](summary: Summary[T], sStar: Array[Int], g: GonzalezResult, centerCore: Array[Boolean])

  final case class Case[T](name: String, pts: IndexedSeq[T], metric: Metric[T], eps: Double, minPts: Int,
                           rho: Double)
}
