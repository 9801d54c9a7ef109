package perfbench

import repro.core.{EditDistanceMetric, EuclideanMetric, Metric}
import scala.reflect.ClassTag

/** DBSCAN parameters of one input. */
final case class Params(eps: Double, minPts: Int, rho: Double) {
  /** Reference levels for the sandwich check: exact DBSCAN at ε and (1+ρ)ε. */
  def levels: Seq[Level] = Seq(Level(eps, minPts), Level((1 + rho) * eps, minPts))
}

/** The in-memory half of a workload: exact, approximate and streaming runs
  * on `points`, re-tuning runs on `retunePoints`.
  *
  * @param chunk        points per chunk fed to each streaming pass
  * @param retunePoints the input of the re-tuning sweep: the same generator
  *                     at the fixed seed [[Workloads.RetuneSeed]]
  * @param retune       the (ε′ ≥ ε, MinPts) sweep run on one ε/2 net of
  *                     `retunePoints` (Remark 5)
  */
final case class MemPart[T](points: IndexedSeq[T], metric: Metric[T], refDist: Dist[T], params: Params,
                            chunk: Int, retunePoints: IndexedSeq[T], retune: Seq[Level])(implicit val tag: ClassTag[T])

/** The Spark half of a workload: `DistributedApproxDBSCAN` and the
  * Structured Streaming driver on Euclidean `points`, fed to the stream in
  * `batches` MemoryStream batches.
  */
final case class SparkPart(points: IndexedSeq[Inputs.Vec], params: Params, batches: Int)

/** @param reps how many times each operation runs per round (default 1), so
  *             that every timed metric covers enough work in one run
  */
final case class Workload[T](name: String, mem: MemPart[T], spark: SparkPart, reps: Map[String, Int] = Map.empty) {
  /** True when both halves run on the same input and parameters. */
  def shared: Boolean = (mem.points eq spark.points) && mem.params == spark.params
}

/** The three workloads. ε, MinPts and ρ are constants here, so only the
  * seed changes a workload's input. Every workload runs every operation;
  * what differs is which layers carry the work (see README.md).
  */
object Workloads {

  val names: Seq[String] = Seq("euclid", "text", "spark")

  /** Seed of the re-tuning sweep's input, whatever `--seed` is. On the
    * `euclid` input of this seed `ExactDBSCAN` is wrong at (1.25ε, 10), a
    * setting of the sweep. With the input fixed, that setting fails in
    * every run, so `failed / attempted` is the same for every seed and the
    * fault stays in sight until it is mended; on other seeds it may or may
    * not show.
    */
  val RetuneSeed = 204L

  /** The Spark part of `euclid` and `text`: the first 1 500 points of the
    * `euclid` stream, enough for a steady net of ~50 centers.
    */
  private def smallSpark(seed: Long): SparkPart =
    SparkPart(Inputs.spotifyLike(16000, seed).take(1500), Params(5.5, 10, 2.0), batches = 5)

  /** Re-tuning settings (ε′ ≥ ε, MinPts) for one ε/2 net. */
  private def sweep(eps: Double): Seq[Level] =
    Seq(Level(eps, 5), Level(eps, 20), Level(1.25 * eps, 10), Level(1.5 * eps, 10), Level(1.5 * eps, 30))

  def make(name: String, seed: Long): Workload[_] = name match {
    case "euclid" =>
      // Cheap distances, |E| ≪ n: Gonzalez and the n·|E| first-fit scans
      // of streaming passes 1 and 3 dominate. The Spark part is small.
      val p = Params(eps = 5.5, minPts = 10, rho = 0.5)
      Workload(name,
        MemPart(Inputs.spotifyLike(16000, seed), EuclideanMetric, Reference.euclid, p, chunk = 1000,
          retunePoints = Inputs.spotifyLike(16000, RetuneSeed), retune = sweep(p.eps)),
        smallSpark(seed),
        reps = Map("exact" -> 2, "retune" -> 5, "spark_approx" -> 2, "spark_stream" -> 2))
    case "text" =>
      // ~6 µs edit distances and a nearly degenerate net (|E| ≈ n/2): the
      // O(|E|²) neighbour sets, core counting, the summary merge and the
      // cover trees dominate. The Spark drivers take Euclidean vectors
      // only, so they run the same small part as `euclid`.
      val p = Params(eps = 7.5, minPts = 10, rho = 0.5)
      Workload(name,
        MemPart(Inputs.text(350, seed), EditDistanceMetric, Reference.levenshtein, p, chunk = 50,
          retunePoints = Inputs.text(350, RetuneSeed), retune = Seq(Level(7.5, 5), Level(9, 10), Level(11, 20))),
        smallSpark(seed),
        reps = Map("spark_approx" -> 2, "spark_stream" -> 2))
    case "spark" =>
      // In the traced run, Spark job scheduling dominates: the default
      // iterative net launches a reduce and a count job per center. The
      // in-memory operations run on the same input as the sequential
      // baseline, repeated so that each still covers about a second of
      // work per run.
      val pts = Inputs.spotifyLike(4000, seed)
      val p   = Params(eps = 7.0, minPts = 10, rho = 2.0)
      Workload(name,
        MemPart(pts, EuclideanMetric, Reference.euclid, p, chunk = 500,
          retunePoints = Inputs.spotifyLike(4000, RetuneSeed), retune = sweep(p.eps)),
        SparkPart(pts, p, batches = 8),
        reps = Map("exact" -> 20, "approx" -> 40, "stream" -> 40, "retune" -> 20, "spark_approx" -> 2,
          "spark_stream" -> 2))
    case other => throw new IllegalArgumentException(s"unknown workload '$other'; expected one of ${names.mkString(", ")}")
  }
}
