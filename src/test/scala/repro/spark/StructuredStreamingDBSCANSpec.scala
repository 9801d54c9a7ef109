package repro.spark

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.SparkSpec
import repro.core.{EuclideanMetric, StreamingDBSCAN, TestUtil}

class StructuredStreamingDBSCANSpec extends SparkSpec {
  import TestUtil._

  private def runStreaming(pts: IndexedSeq[Vec], eps: Double, minPts: Int, rho: Double,
                           batches: Int): Array[Int] = {
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val stream = MemoryStream[(Long, Array[Double])]
    val rows   = pts.zipWithIndex.map { case (p, i) => (i.toLong, p) }
    rows.grouped(math.max(1, rows.length / batches)).foreach(chunk => stream.addData(chunk))
    val driver = new StructuredStreamingDBSCAN(spark, eps, minPts, rho)
    driver.runPass1(stream.toDS())
    val archive = rows.toDF("id", "features")
    val labeled = driver.finish(archive).collect().map(r => (r.getLong(0), r.getInt(1))).toMap
    Array.tabulate(pts.length)(i => labeled(i.toLong))
  }

  test("rho = 3 is rejected (Lemma 8 needs rho ≤ 2)") {
    intercept[IllegalArgumentException](new StructuredStreamingDBSCAN(spark, 1.0, 5, 3.0))
  }

  test("structured-streaming pass 1 equals the in-memory engine") {
    val pts = blobs(250, 2, 3, outliers = 10, seed = 221)
    val got = runStreaming(pts, eps = 1.0, minPts = 5, rho = 0.5, batches = 7)
    val (want, _) = StreamingDBSCAN.runBatch(pts, EuclideanMetric, 1.0, 5, 0.5)
    assert(got.sameElements(want), "foreachBatch path must match the core engine")
  }

  test("result is a valid rho-approximate DBSCAN solution") {
    val pts = blobs(220, 2, 2, outliers = 8, seed = 222)
    val got = runStreaming(pts, eps = 1.0, minPts = 5, rho = 0.5, batches = 5)
    assertSandwich(pts, EuclideanMetric, 1.0, 5, 0.5, got)
  }

  test("batch boundaries do not change the result") {
    val pts = blobs(180, 2, 2, seed = 223)
    val a = runStreaming(pts, 1.0, 5, 0.5, batches = 2)
    val b = runStreaming(pts, 1.0, 5, 0.5, batches = 18)
    assert(a.sameElements(b))
  }

  test("memory footprint stays summary-sized") {
    val pts = blobs(1200, 2, 3, std = 0.3, seed = 224)
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val stream = MemoryStream[(Long, Array[Double])]
    pts.zipWithIndex.map { case (p, i) => (i.toLong, p) }
      .grouped(200).foreach(stream.addData(_))
    val driver = new StructuredStreamingDBSCAN(spark, 1.0, 10, 0.5)
    driver.runPass1(stream.toDS())
    assert(driver.engine.memoryFootprint < pts.length / 2,
      s"footprint ${driver.engine.memoryFootprint} vs n ${pts.length}")
  }
}
