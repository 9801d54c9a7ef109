package repro.spark

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{ApproxDBSCAN, Metric, Summary}
import scala.reflect.ClassTag

/** Distributed ρ-approximate metric DBSCAN (Algorithm 2 as RDD map/reduce).
  *
  * Dataflow (every pass is linear in n):
  *   1. summary construction — distributed radius-guided Gonzalez at
  *      r̄ = ρε/2 ([[DistributedGonzalez]]);
  *   2. core centers — broadcast E; `flatMap` each point to the centers
  *      within ε; `reduceByKey` the counts; a center is core iff ≥ MinPts;
  *   3. M — members of non-core balls, collected to the driver (provably
  *      < MinPts per ball, so |M| = O(MinPts·|E|): summary-sized) and sorted
  *      there by (ball, id), so S* can be laid out ball by ball;
  *   4. core M-members — broadcast M; `flatMap`+`reduceByKey` exact
  *      ε-neighborhood counts;
  *   5. S* = core centers and core M-members, ball by ball, merged on the
  *      driver at (1+ρ)ε by the shared [[repro.core.Summary]] (every ball is
  *      searched: there are no A_e sets here);
  *   6. labeling — broadcast the merged `Summary`; one `map` labels every
  *      point by `Summary.label` (Algorithm 2 lines 10–20). Output is a
  *      DataFrame (id, label) so downstream verification runs through
  *      Catalyst/DuckDB.
  */
object DistributedApproxDBSCAN {

  final case class Output(labeled: DataFrame, numCenters: Int, summarySize: Int)

  def run[T: ClassTag](
      spark: SparkSession,
      data: RDD[(Long, T)],
      metric: Metric[T],
      eps: Double,
      minPts: Int,
      rho: Double
  ): Output = {
    require(eps > 0 && minPts >= 1)
    ApproxDBSCAN.requireRho(rho)
    val sc   = spark.sparkContext
    val rBar = rho * eps / 2.0

    // ---- 1. net construction ------------------------------------------------
    val net     = DistributedGonzalez.run(data, metric, rBar)
    val centers = net.centers
    val k       = centers.length
    val bcC     = sc.broadcast(centers)

    // ---- 2. core centers ------------------------------------------------------
    val centerCounts: Map[Int, Long] = data
      .flatMap { case (_, p) =>
        val cs  = bcC.value
        val out = scala.collection.mutable.ArrayBuffer.empty[(Int, Long)]
        var i = 0
        while (i < cs.length) {
          if (metric.distWithin(p, cs(i), eps) <= eps) out += ((i, 1L))
          i += 1
        }
        out
      }
      .reduceByKey(_ + _)
      .collect()
      .toMap
    val centerCore = Array.tabulate(k)(e => centerCounts.getOrElse(e, 0L) >= minPts)

    // ---- 3. members of non-core balls (the M set), ball by ball ---------------
    val bcCore = sc.broadcast(centerCore)
    val m: Array[(Int, Long, T)] = net.assigned
      .filter(a => !bcCore.value(a.center))
      .map(a => (a.center, a.id, a.point))
      .collect()
      .sortBy(a => (a._1, a._2))

    // ---- 4. exact ε-neighborhood counts for M ----------------------------------
    val bcM = sc.broadcast(m)
    val mCounts: Map[Int, Long] = data
      .flatMap { case (_, q) =>
        val mm  = bcM.value
        val out = scala.collection.mutable.ArrayBuffer.empty[(Int, Long)]
        var i = 0
        while (i < mm.length) {
          if (metric.distWithin(q, mm(i)._3, eps) <= eps) out += ((i, 1L))
          i += 1
        }
        out
      }
      .reduceByKey(_ + _)
      .collect()
      .toMap

    // ---- 5. S* + offline merge --------------------------------------------------
    val start = new Array[Int](k + 1)
    val pts   = scala.collection.mutable.ArrayBuffer.empty[T]
    var i     = 0
    for (e <- 0 until k) {
      start(e) = pts.length
      if (centerCore(e)) pts += centers(e)
      while (i < m.length && m(i)._1 == e) {
        if (mCounts.getOrElse(i, 0L) >= minPts) pts += m(i)._3
        i += 1
      }
    }
    start(k) = pts.length
    val summary = new Summary(pts, start, centerCore, Summary.everyBall(k), metric, eps, rho)
    summary.merge()

    // ---- 6. one labeling pass ----------------------------------------------------
    val bcSummary = sc.broadcast(summary)
    val labeledRdd: RDD[(Long, Int)] = net.assigned.map(a => (a.id, bcSummary.value.label(a.point, a.center)))
    import spark.implicits._
    Output(labeledRdd.toDF("id", "label"), k, summary.size)
  }
}
