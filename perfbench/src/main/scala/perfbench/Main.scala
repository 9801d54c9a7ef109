package perfbench

import java.io.{File, PrintWriter}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession

/** Benchmark entry point:
  * `--workload <euclid|text|spark> --seed <n> --seconds <s> --trace <0|1>
  * [--layers-dir <dir>]`.
  *
  * One caller, closed loop: after set-up and a warm-up round, it runs rounds
  * of the same operations back to back until `--seconds` have passed and
  * reports each operation's median. With `--trace 1` it reports the
  * per-layer metrics instead and writes them to `<layers-dir>` as one JSON
  * record per workload × layer. The last line of stdout is the result.
  */
object Main {

  /** Set-up runs once cold (the JVM loads Spark's classes; not reported),
    * then this many times more, each after a full GC, reported as the
    * median.
    */
  val SetupReps = 9

  final case class Opts(workload: String = "", seed: Long = 1, seconds: Double = 10, trace: Boolean = false,
                        layersDir: String = ".bench_build/perfbench/layers")

  private def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case "--workload" :: v :: rest   => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest       => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest    => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest      => parse(rest, o.copy(trace = v match {
      case "0" => false
      case "1" => true
      case _   => throw new IllegalArgumentException(s"--trace takes 0 or 1, not '$v'")
    }))
    case "--layers-dir" :: v :: rest => parse(rest, o.copy(layersDir = v))
    case Nil                         => o
    case other                       => throw new IllegalArgumentException(s"unknown argument '${other.head}'")
  }

  /** Spark's worker threads. Two, not one per core: Spark's driver thread, the
    * listener bus and the collector then have cores of their own, and a job
    * waits for the slowest of fewer tasks (see README.md).
    */
  def sparkThreads: Int = math.min(2, Runtime.getRuntime.availableProcessors)

  private def startSpark(): SparkSession = {
    val tmp = System.getProperty("java.io.tmpdir")
    val s = SparkSession.builder()
      .master(s"local[$sparkThreads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$tmp/spark-local")
      .config("spark.sql.warehouse.dir", s"$tmp/spark-warehouse")
      .config("spark.sql.shuffle.partitions", sparkThreads.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  private def stopSpark(s: SparkSession): Unit = {
    s.stop()
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
  }

  def main(args: Array[String]): Unit = {
    val code =
      try run(parse(args.toList))
      catch {
        case e: IllegalArgumentException => System.err.println(s"perfbench: ${e.getMessage}"); 2
        case e: Throwable                => e.printStackTrace(); 1
      }
    System.out.flush()
    sys.exit(code)
  }

  private def run(o: Opts): Int = {
    if (!Workloads.names.contains(o.workload))
      throw new IllegalArgumentException(s"unknown workload '${o.workload}'; expected one of ${Workloads.names.mkString(", ")}")

    // Set-up: generate the inputs, start Spark, cache the input RDD.
    var spark: SparkSession = null
    var w: Workload[_] = null
    var rdd: RDD[(Long, Inputs.Vec)] = null
    val setupTimes = (0 to SetupReps).map { _ =>
      if (spark != null) stopSpark(spark)
      System.gc() // no garbage of the previous set-up is collected inside the next
      Clock.time {
        w = Workloads.make(o.workload, o.seed)
        spark = startSpark()
        val pts = w.spark.points
        rdd = spark.sparkContext.parallelize(pts.indices.map(i => (i.toLong, pts(i))), sparkThreads).cache()
        rdd.count()
      }._2
    }.drop(1)
    try {
      val result = measure(w, spark, rdd, o, setupTimes)
      println(result)
      0
    } finally stopSpark(spark)
  }

  private def measure[T](w: Workload[T], spark: SparkSession, rdd: RDD[(Long, Inputs.Vec)], o: Opts,
                         setupTimes: Seq[Double]): String = {
    val threads = Runtime.getRuntime.availableProcessors
    val (bench, tRef) = Clock.time(new Bench(w, spark, rdd, threads))
    val jobs          = new JobCounter(spark.sparkContext)
    val ops           = if (o.trace) bench.memOps ++ bench.sparkOps else bench.memOps
    val (_, tWarm)    = Clock.time(bench.round(new Recorder, ops))
    System.err.println(f"perfbench: set-up ${setupTimes.mkString(" ")} s, reference $tRef%.2f s, warm-up $tWarm%.2f s")

    System.gc() // every run starts measuring from a collected heap
    val rec       = new Recorder
    var attempted = 0
    // Failed checks of operations, and faults of the run as a whole.
    val errors    = scala.collection.mutable.ArrayBuffer.empty[String]
    val runErrors = scala.collection.mutable.ArrayBuffer.empty[String]
    val t0        = System.nanoTime()
    def elapsed   = (System.nanoTime() - t0) / 1e9
    if (!o.trace) {
      rec.add("setup_s", "s", Clock.median(setupTimes))
      while (attempted == 0 || elapsed < o.seconds) {
        val (a, errs, _) = bench.round(rec, ops)
        attempted += a
        errors ++= errs
      }
      if (bench.streamPeaks.distinct.length != 1)
        runErrors += s"stream: peak footprint varies between rounds: ${bench.streamPeaks.distinct.mkString(",")}"
      rec.add("stream_peak_pts", "pts", bench.streamPeaks.head.toDouble)
    } else {
      while (attempted == 0 || elapsed < o.seconds) {
        val (a, errs, plainOnce) = bench.round(new Recorder, ops)
        attempted += a
        errors ++= errs
        val counted = bench.countedRound(rec, jobs)
        rec.add("trace.overhead_s", "s", counted - plainOnce)
        bench.layers(rec, jobs)
      }
      writeLayers(o, w.name, rec)
    }
    jobs.close()
    errors.foreach(e => System.err.println(s"perfbench: FAILED $e"))
    runErrors.foreach(e => System.err.println(s"perfbench: WRONG $e"))
    // `correct` speaks of the operations that did not fail.
    Json.result(correct = runErrors.isEmpty, attempted, errors.length, rec.medians)
  }

  /** One JSON record per layer (the metric-name prefix before the dot). */
  private def writeLayers(o: Opts, workload: String, rec: Recorder): Unit = {
    val dir = new File(o.layersDir)
    dir.mkdirs()
    val byLayer = rec.medians.groupBy(_._1.takeWhile(_ != '.')).toSeq.sortBy(_._1)
    val lines = byLayer.map { case (layer, ms) =>
      s"""{"workload": "$workload", "seed": ${o.seed}, "layer": "$layer", "metrics": ${Json.metrics(ms)}}"""
    }
    val f  = new File(dir, s"$workload-seed${o.seed}.jsonl")
    val pw = new PrintWriter(f, "UTF-8")
    try lines.foreach(pw.println) finally pw.close()
    System.err.println(s"perfbench: per-layer records in ${f.getPath}")
  }
}

object Json {
  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) throw new IllegalStateException(s"non-finite metric value $v")
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString

  def metrics(ms: Seq[(String, Double, String)]): String =
    ms.map { case (k, v, u) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }.mkString("{", ", ", "}")

  def result(correct: Boolean, attempted: Int, failed: Int, ms: Seq[(String, Double, String)]): String =
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": ${metrics(ms)}}"""
}
