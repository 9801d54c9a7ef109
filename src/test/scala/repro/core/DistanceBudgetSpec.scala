package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Datasets

/** Distance calls, the paper's cost unit (t_dis), on fixed seeded inputs:
  * each phase stays at or below the count recorded for it. A change that
  * lowers a count lowers its budget with it; a budget is never raised to let
  * a test pass. The structural sizes the theory bounds are checked too.
  */
class DistanceBudgetSpec extends AnyFunSuite {
  import DistanceBudgetSpec.Budget
  import TestUtil._

  private def budgeted[T](name: String, points: IndexedSeq[T], metric: Metric[T], eps: Double,
                          minPts: Int, rho: Double, budget: Budget): Unit = {
    val n          = points.length.toLong
    val (rE, rA)   = (eps / 2, rho * eps / 2)
    val (kE, kA)   = (2 * rE + eps, 4 * rA + eps)
    lazy val netE  = { val c = new CallCountingMetric(metric); (Gonzalez.run(points, c, rE, keepWithin = kE), c.calls) }
    lazy val netA  = { val c = new CallCountingMetric(metric); (Gonzalez.run(points, c, rA, keepWithin = kA), c.calls) }

    test(s"$name: neighborSets makes no distance call on a fresh exact or approximate net") {
      val c = new CallCountingMetric(metric)
      Gonzalez.neighborSets(points, c, netE._1, kE)
      Gonzalez.neighborSets(points, c, netA._1, kA)
      Gonzalez.neighborSets(points, c, netA._1, 2 * rA + eps)
      assert(c.calls == 0)
    }

    test(s"$name: Gonzalez under n·|E|/2 calls and within budget") {
      val (gE, callsE) = netE
      val (gA, callsA) = netA
      assert(callsE < n * gE.numCenters / 2, s"ε/2 net: $callsE calls, |E| = ${gE.numCenters}")
      assert(callsA < n * gA.numCenters / 2, s"ρε/2 net: $callsA calls, |E| = ${gA.numCenters}")
      assert(callsE <= budget.netExact, s"ε/2 net: $callsE calls, budget ${budget.netExact}")
      assert(callsA <= budget.netApprox, s"ρε/2 net: $callsA calls, budget ${budget.netApprox}")
    }

    test(s"$name: exact and approximate DBSCAN after the net within budget") {
      val (gE, callsE) = netE
      val (gA, callsA) = netA
      val cE = new CallCountingMetric(metric)
      ExactDBSCAN.run(points, cE, eps, minPts, precomputed = Some((gE, 0L)))
      assert(cE.calls <= budget.exact, s"exact after the net: ${cE.calls} calls, budget ${budget.exact}")
      val cA  = new CallCountingMetric(metric)
      val out = ApproxDBSCAN.run(points, cA, eps, minPts, rho, precomputed = Some((gA, 0L)))
      assert(cA.calls <= budget.approx, s"approximate after the net: ${cA.calls} calls, budget ${budget.approx}")
      assert(out.summarySize <= minPts.toLong * out.numCenters, s"|S*| = ${out.summarySize}")
      // A run that builds its own net keeps the pairs it needs: the whole run
      // costs its net plus the calls after it, with no second pair loop.
      val wholeE = new CallCountingMetric(metric)
      ExactDBSCAN.run(points, wholeE, eps, minPts)
      assert(wholeE.calls == callsE + cE.calls)
      val wholeA = new CallCountingMetric(metric)
      ApproxDBSCAN.run(points, wholeA, eps, minPts, rho)
      assert(wholeA.calls == callsA + cA.calls)
    }
  }

  budgeted("blobs", blobs(800, 2, 4, outliers = 16, seed = 1201), EuclideanMetric,
    eps = 0.6, minPts = 8, rho = 0.5, Budget(netExact = 18450, exact = 13852, netApprox = 59074, approx = 4804))
  budgeted("spotifyLike", Datasets.spotifyLike(2000, seed = 1202).points, EuclideanMetric,
    eps = 5.5, minPts = 10, rho = 0.5, Budget(netExact = 80530, exact = 29607, netApprox = 243177, approx = 12151))
  budgeted("text", Datasets.text("t", 300, k = 4, seed = 1203).points, EditDistanceMetric,
    eps = 12.0, minPts = 10, rho = 0.5, Budget(netExact = 4311, exact = 3275, netApprox = 23059, approx = 1873))
}

object DistanceBudgetSpec {

  /** Recorded calls: each net (at ε/2 and at ρε/2, pairs kept) and each
    * algorithm after its net.
    */
  final case class Budget(netExact: Long, exact: Long, netApprox: Long, approx: Long)
}
