package perfbench

import scala.util.Random

/** The benchmark's own input generators. They follow the recipes of
  * `repro.data.Datasets.spotifyLike` and `Datasets.text` but live here, so a
  * change to the repository's generators cannot silently change a workload:
  * the inputs depend on the seed alone.
  */
object Inputs {

  type Vec = Array[Double]

  /** Seed of the fixed part of each workload: the embedding and cluster
    * centers of the vectors, the templates of the texts. The run's seed
    * draws the points themselves, so runs with different seeds sample the
    * same distribution and do comparable work.
    */
  val LayoutSeed = 29L

  /** A Spotify-session-like stream: `k` Gaussian clusters on a `dIntrinsic`
    * subspace linearly embedded in `d` dimensions, cluster weights drifting
    * with stream position, and 1% full-dimensional uniform outliers spread
    * evenly through the stream.
    */
  def spotifyLike(n: Int, seed: Long, k: Int = 6, d: Int = 21, dIntrinsic: Int = 3): IndexedSeq[Vec] = {
    val layout  = new Random(LayoutSeed)
    val embed   = Array.fill(dIntrinsic, d)(layout.nextGaussian() / math.sqrt(dIntrinsic))
    val centers = Array.fill(k, dIntrinsic)(layout.nextGaussian() * 10.0)
    val rnd     = new Random(seed)
    val nOut    = (n * 0.01).toInt
    val outAt   = Set.tabulate(nOut)(i => (i.toLong * n / math.max(1, nOut)).toInt)
    IndexedSeq.tabulate(n) { i =>
      if (outAt(i)) Array.fill(d)(rnd.nextDouble() * 80 - 40)
      else {
        val phase = i.toDouble / n
        val c     = math.min(k - 1, ((rnd.nextDouble() * 0.5 + phase * 0.5) * k).toInt)
        val z     = Array.tabulate(dIntrinsic)(j => centers(c)(j) + rnd.nextGaussian() * 0.8)
        Array.tabulate(d) { jj =>
          var s = 0.0
          var j = 0
          while (j < dIntrinsic) { s += z(j) * embed(j)(jj); j += 1 }
          s + rnd.nextGaussian() * 0.05
        }
      }
    }
  }

  val Alphabet = "abcdefghijklmnopqrstuvwxyz "

  /** AG_News-like short texts: `k` random template strings, members carry
    * 1 to `maxEdits` random character edits, and 2% of the points (at the
    * end of the stream) are unrelated random strings.
    */
  def text(n: Int, seed: Long, k: Int = 4, templateLen: Int = 40, maxEdits: Int = 4): IndexedSeq[String] = {
    def randStr(r: Random, len: Int): String = Iterator.fill(len)(Alphabet(r.nextInt(Alphabet.length))).mkString
    val layout    = new Random(LayoutSeed)
    val templates = Array.fill(k)(randStr(layout, templateLen))
    val rnd       = new Random(seed)
    def mutate(s: String): String = {
      val sb = new StringBuilder(s)
      for (_ <- 0 until 1 + rnd.nextInt(maxEdits)) {
        val pos = rnd.nextInt(math.max(1, sb.length))
        rnd.nextInt(3) match {
          case 0 if sb.length > 1 => sb.deleteCharAt(pos)
          case 1                  => sb.insert(pos, Alphabet(rnd.nextInt(Alphabet.length)))
          case _ =>
            val c = Alphabet(rnd.nextInt(Alphabet.length))
            if (pos < sb.length) sb.setCharAt(pos, c) else sb.append(c)
        }
      }
      sb.toString
    }
    val nOut = (n * 0.02).toInt
    IndexedSeq.tabulate(n - nOut)(i => mutate(templates(i % k))) ++
      IndexedSeq.fill(nOut)(randStr(rnd, templateLen / 2 + rnd.nextInt(templateLen)))
  }
}
