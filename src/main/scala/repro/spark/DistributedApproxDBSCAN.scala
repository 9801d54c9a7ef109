package repro.spark

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{ApproxDBSCAN, DBSCANResult, Metric, UnionFind}
import scala.reflect.ClassTag

/** Distributed ρ-approximate metric DBSCAN (Algorithm 2 as RDD map/reduce).
  *
  * Dataflow (every pass is linear in n):
  *   1. summary construction — distributed radius-guided Gonzalez at
  *      r̄ = ρε/2 ([[DistributedGonzalez]]);
  *   2. core centers — broadcast E; `flatMap` each point to the centers
  *      within ε; `reduceByKey` the counts; a center is core iff ≥ MinPts;
  *   3. M — members of non-core balls, collected to the driver (provably
  *      < MinPts per ball, so |M| = O(MinPts·|E|): summary-sized);
  *   4. core M-members — broadcast M; `flatMap`+`reduceByKey` exact
  *      ε-neighborhood counts;
  *   5. merge S* on the driver at (1+ρ)ε (|S*|² work on a summary-sized set);
  *   6. labeling — broadcast the labeled summary; one `map` labels every
  *      point (Algorithm 2 lines 10–20). Output is a DataFrame (id, label)
  *      so downstream verification runs through Catalyst/DuckDB.
  */
object DistributedApproxDBSCAN {

  final case class Output(labeled: DataFrame, numCenters: Int, summarySize: Int)

  def run[T: ClassTag](
      spark: SparkSession,
      data: RDD[(Long, T)],
      metric: Metric[T],
      eps: Double,
      minPts: Int,
      rho: Double,
      partitionedNet: Boolean = false
  ): Output = {
    require(eps > 0 && minPts >= 1)
    ApproxDBSCAN.requireRho(rho)
    val sc   = spark.sparkContext
    val rBar = rho * eps / 2.0

    // ---- 1. net construction ------------------------------------------------
    val net = if (partitionedNet) DistributedGonzalez.runPartitioned(data, metric, rBar)
              else DistributedGonzalez.run(data, metric, rBar)
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

    // ---- 3. members of non-core balls (the M set) -----------------------------
    val bcCore = sc.broadcast(centerCore)
    val m: Array[(Long, T)] = net.assigned
      .filter(a => !bcCore.value(a.center))
      .map(a => (a.id, a.point))
      .collect()

    // ---- 4. exact ε-neighborhood counts for M ----------------------------------
    val bcM = sc.broadcast(m)
    val mCounts: Map[Int, Long] = data
      .flatMap { case (_, q) =>
        val mm  = bcM.value
        val out = scala.collection.mutable.ArrayBuffer.empty[(Int, Long)]
        var i = 0
        while (i < mm.length) {
          if (metric.distWithin(q, mm(i)._2, eps) <= eps) out += ((i, 1L))
          i += 1
        }
        out
      }
      .reduceByKey(_ + _)
      .collect()
      .toMap

    // ---- 5. S* + offline merge --------------------------------------------------
    val summary = scala.collection.mutable.ArrayBuffer.empty[T]
    val centerSummaryPos = Array.fill(k)(-1)
    for (e <- 0 until k if centerCore(e)) {
      centerSummaryPos(e) = summary.length
      summary += centers(e)
    }
    for (i <- m.indices if mCounts.getOrElse(i, 0L) >= minPts)
      summary += m(i)._2
    val uf       = new UnionFind(summary.length)
    val mergeEps = (1.0 + rho) * eps
    for (a <- summary.indices; b <- a + 1 until summary.length)
      if (!uf.connected(a, b) && metric.distWithin(summary(a), summary(b), mergeEps) <= mergeEps) uf.union(a, b)
    val sLabel = uf.componentIds

    // ---- 6. one labeling pass ----------------------------------------------------
    val bcSummary = sc.broadcast((summary.toIndexedSeq, sLabel, centerSummaryPos))
    val assignEps = (1.0 + rho / 2.0) * eps
    val labeledRdd: RDD[(Long, Int)] = net.assigned.map { a =>
      val (sPts, lbl, cPos) = bcSummary.value
      val viaCenter = if (a.dist <= rBar && cPos(a.center) >= 0) lbl(cPos(a.center)) else Int.MinValue
      val out =
        if (viaCenter != Int.MinValue) viaCenter
        else {
          var found = -1
          var s     = 0
          while (s < sPts.length && found < 0) {
            if (metric.distWithin(a.point, sPts(s), assignEps) <= assignEps) found = s
            s += 1
          }
          if (found >= 0) lbl(found) else DBSCANResult.Noise
        }
      (a.id, out)
    }
    import spark.implicits._
    Output(labeledRdd.toDF("id", "label"), k, summary.length)
  }
}
