package repro.spark

import repro.{Oracle, SparkSpec}
import repro.core.{ApproxDBSCAN, EuclideanMetric, TestUtil}
import repro.data.Datasets

class DistributedApproxDBSCANSpec extends SparkSpec {
  import TestUtil._

  private def toRdd(pts: IndexedSeq[Vec], partitions: Int = 4) =
    spark.sparkContext.parallelize(pts.zipWithIndex.map { case (p, i) => (i.toLong, p) }, partitions)

  private def labelsOf(pts: IndexedSeq[Vec], eps: Double, minPts: Int, rho: Double,
                       partitions: Int = 4): Array[Int] = {
    val out = DistributedApproxDBSCAN.run(spark, toRdd(pts, partitions), EuclideanMetric, eps, minPts, rho)
    val got = out.labeled.collect().map(r => (r.getLong(0), r.getInt(1))).toMap
    Array.tabulate(pts.length)(i => got(i.toLong))
  }

  test("sandwich holds (iterative net)") {
    val pts = blobs(300, 2, 3, outliers = 15, seed = 211)
    val labels = labelsOf(pts, eps = 1.0, minPts = 5, rho = 0.5)
    assertSandwich(pts, EuclideanMetric, 1.0, 5, 0.5, labels)
  }

  test("sandwich holds across rho values") {
    val pts = blobs(250, 2, 2, outliers = 10, seed = 213)
    for (rho <- Seq(0.25, 1.0, 2.0)) {
      val labels = labelsOf(pts, eps = 1.0, minPts = 5, rho = rho)
      assertSandwich(pts, EuclideanMetric, 1.0, 5, rho, labels)
    }
  }

  test("labels equal ApproxDBSCAN's point for point") {
    // With ids equal to input positions the iterative net is the sequential
    // one, so both drivers build the same S*, ball by ball. These inputs are
    // sparse enough that at ρ = 0.5 and 2 some non-core balls have core
    // members, so S* draws on M too.
    val inputs = Seq(
      ("blobs", blobs(100, 2, 3, std = 1.0, outliers = 5, seed = 218), 1.0),
      ("moons", Datasets.moons(100, seed = 219).points, 0.2))
    for ((name, pts, eps) <- inputs; rho <- Seq(0.25, 0.5, 2.0); parts <- Seq(2, 5)) {
      val want = ApproxDBSCAN.run(pts, EuclideanMetric, eps, 5, rho).result.labels
      val got  = labelsOf(pts, eps, 5, rho, parts)
      assert(got.sameElements(want), s"$name, rho = $rho, $parts partitions")
    }
  }

  test("well-separated blobs: one cluster per blob, outliers noise") {
    val pts = blobs(300, 2, 3, std = 0.3, sep = 40.0, outliers = 9, seed = 214)
    val labels = labelsOf(pts, eps = 1.0, minPts = 5, rho = 0.5)
    assert(labels.take(291).forall(_ >= 0))
    assert(labels.takeRight(9).forall(_ == -1), "planted far outliers must be noise")
    assert(labels.take(291).distinct.length == 3)
  }

  test("output DataFrame: schema, one row per input id") {
    val pts = blobs(200, 2, 2, seed = 215)
    val out = DistributedApproxDBSCAN.run(spark, toRdd(pts), EuclideanMetric, 1.0, 5, 0.5)
    assert(out.labeled.columns.toSeq == Seq("id", "label"))
    assert(out.labeled.count() == 200)
    assert(out.labeled.select("id").distinct().count() == 200)
    assert(out.numCenters > 0 && out.summarySize > 0)
  }

  test("cluster-size histogram matches DuckDB (oracle)") {
    val pts = blobs(250, 2, 3, outliers = 10, seed = 216)
    val out = DistributedApproxDBSCAN.run(spark, toRdd(pts), EuclideanMetric, 1.0, 5, 0.5)
    val labeled = out.labeled
    labeled.createOrReplaceTempView("labeled")
    val sql =
      """SELECT CAST(label AS INT) AS label, COUNT(*) AS cnt
        |FROM labeled GROUP BY label""".stripMargin
    val sparkRes = spark.sql(sql)
    Oracle.assertEquivalent(sparkRes, sql, "labeled" -> labeled)
  }

  test("rho outside (0, 2] is rejected") {
    val pts = blobs(50, 2, 1, seed = 217)
    intercept[IllegalArgumentException] {
      DistributedApproxDBSCAN.run(spark, toRdd(pts), EuclideanMetric, 1.0, 5, rho = 3.0)
    }
  }
}
