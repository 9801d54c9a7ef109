package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class CoverTreeSpec extends AnyFunSuite {
  import TestUtil._

  private def bruteNN(points: IndexedSeq[Vec], ids: Seq[Int], q: Vec): Double =
    ids.map(i => EuclideanMetric.dist(points(i), q)).min

  test("single point") {
    val t = new CoverTree[Vec](EuclideanMetric)
    t.insert(Array(1.0, 2.0), 0)
    val (idx, d) = t.nearest(Array(1.0, 2.0))
    assert(idx == 0 && d == 0.0)
    val (_, d2) = t.nearest(Array(4.0, 6.0))
    assert(math.abs(d2 - 5.0) < 1e-12)
  }

  test("exact duplicates are handled") {
    val t = new CoverTree[Vec](EuclideanMetric)
    for (i <- 0 until 10) t.insert(Array(3.0, 3.0), i)
    t.insert(Array(0.0, 0.0), 10)
    assert(t.size == 11)
    val (_, d) = t.nearest(Array(3.0, 3.0))
    assert(d == 0.0)
  }

  test("NN matches brute force on gaussian blobs (many trials)") {
    val rnd = new Random(31)
    for (trial <- 0 until 20) {
      val pts  = blobs(150, 1 + rnd.nextInt(5), 3, seed = 100 + trial)
      val tree = CoverTree.build(pts, pts.indices, EuclideanMetric)
      for (_ <- 0 until 30) {
        val q = Array.fill(pts.head.length)(rnd.nextGaussian() * 15)
        val (idx, d) = tree.nearest(q)
        val bd = bruteNN(pts, pts.indices, q)
        assert(math.abs(d - bd) < 1e-9, s"trial $trial: got $d want $bd")
        assert(math.abs(EuclideanMetric.dist(pts(idx), q) - d) < 1e-9)
      }
    }
  }

  test("NN matches brute force on uniform data with extreme scales") {
    val rnd = new Random(32)
    for (scale <- Seq(1e-6, 1.0, 1e6)) {
      val pts  = uniform(120, 3, lo = 0, hi = scale, seed = 33)
      val tree = CoverTree.build(pts, pts.indices, EuclideanMetric)
      for (_ <- 0 until 25) {
        val q = Array.fill(3)(rnd.nextDouble() * scale)
        val (_, d) = tree.nearest(q)
        assert(math.abs(d - bruteNN(pts, pts.indices, q)) <= 1e-9 * math.max(1.0, scale))
      }
    }
  }

  test("NN over a subset of ids") {
    val pts  = blobs(200, 2, 4, seed = 34)
    val ids  = pts.indices.filter(_ % 3 == 0)
    val tree = CoverTree.build(pts, ids, EuclideanMetric)
    val rnd  = new Random(35)
    for (_ <- 0 until 40) {
      val q = Array.fill(2)(rnd.nextGaussian() * 20)
      val (idx, d) = tree.nearest(q)
      assert(ids.contains(idx))
      assert(math.abs(d - bruteNN(pts, ids, q)) < 1e-9)
    }
  }

  test("nearestWithin is exact when the true NN is within the cutoff") {
    val pts  = blobs(200, 3, 3, seed = 36)
    val tree = CoverTree.build(pts, pts.indices, EuclideanMetric)
    val rnd  = new Random(37)
    for (_ <- 0 until 60) {
      val q  = pts(rnd.nextInt(pts.length)).map(_ + rnd.nextGaussian() * 0.2)
      val bd = bruteNN(pts, pts.indices, q)
      val cutoff = bd + 0.5
      val (_, d) = tree.nearestWithin(q, cutoff)
      assert(math.abs(d - bd) < 1e-9, s"nearestWithin not exact: $d vs $bd")
    }
  }

  test("nearestWithin never reports ≤ cutoff when no point is within cutoff") {
    val pts  = uniform(100, 2, lo = 0, hi = 1, seed = 38)
    val tree = CoverTree.build(pts, pts.indices, EuclideanMetric)
    val q    = Array(100.0, 100.0)
    val (_, d) = tree.nearestWithin(q, 1.0)
    assert(d > 1.0)
  }

  test("works with edit distance") {
    val rnd  = new Random(39)
    val strs = IndexedSeq.fill(100)(
      Iterator.fill(4 + rnd.nextInt(8))(('a' + rnd.nextInt(4)).toChar).mkString)
    val tree = CoverTree.build(strs, strs.indices, EditDistanceMetric)
    for (_ <- 0 until 30) {
      val q = Iterator.fill(4 + rnd.nextInt(8))(('a' + rnd.nextInt(4)).toChar).mkString
      val (_, d) = tree.nearest(q)
      val bd = strs.map(EditDistanceMetric.dist(_, q)).min
      assert(d == bd, s"edit NN: got $d want $bd")
    }
  }

  test("incremental inserts keep queries exact") {
    val rnd  = new Random(40)
    val pts  = uniform(300, 2, seed = 41)
    val tree = new CoverTree[Vec](EuclideanMetric)
    val inserted = scala.collection.mutable.ArrayBuffer.empty[Int]
    pts.indices.foreach { i =>
      tree.insert(pts(i), i)
      inserted += i
      if (i % 37 == 0) {
        val q = Array.fill(2)(rnd.nextDouble() * 10)
        val (_, d) = tree.nearest(q)
        assert(math.abs(d - bruteNN(pts, inserted.toSeq, q)) < 1e-9)
      }
    }
    assert(tree.size == 300)
  }

  test("a child created before the root level rose adopts only points within its own radius") {
    // Inserting 10 raises the root level above the level of 1's node; 5 must
    // not be filed under 1, or the search prunes it away.
    val pts  = IndexedSeq(0.0, 1.0, 10.0, 5.0).map(Array(_))
    val tree = CoverTree.build(pts, pts.indices, EuclideanMetric)
    assert(tree.nearest(Array(6.5)) == ((3, 1.5)))
    assert(tree.nearestWithin(Array(6.5), 2.0) == ((3, 1.5)))
  }

  test("NN matches brute force on 3000 small one-dimensional trees") {
    val rnd = new Random(42)
    for (t <- 0 until 3000) {
      val n    = 2 + rnd.nextInt(30)
      val pts  = IndexedSeq.fill(n)(Array(rnd.nextInt(1 << (1 + rnd.nextInt(8))).toDouble))
      val tree = CoverTree.build(pts, pts.indices, EuclideanMetric)
      val q    = Array(rnd.nextDouble() * 256)
      val (idx, d) = tree.nearest(q)
      val want = bruteNN(pts, pts.indices, q)
      assert(d == want && EuclideanMetric.dist(pts(idx), q) == d,
        s"tree $t (${pts.map(_(0)).mkString(", ")}), query ${q(0)}: got $d want $want")
    }
  }

  test("queries stay exact when distWithin returns +∞ past its bound") {
    val pts  = blobs(200, 3, 3, seed = 43)
    val tree = CoverTree.build(pts, pts.indices, new MetricSpec.Overshoot(EuclideanMetric))
    val rnd  = new Random(44)
    for (_ <- 0 until 60) {
      val q  = pts(rnd.nextInt(pts.length)).map(_ + rnd.nextGaussian())
      val bd = bruteNN(pts, pts.indices, q)
      assert(math.abs(tree.nearest(q)._2 - bd) < 1e-9)
      assert(math.abs(tree.nearestWithin(q, bd + 0.5)._2 - bd) < 1e-9)
      assert(tree.nearestWithin(q, bd / 2)._2 > bd / 2)
    }
  }

  test("empty tree rejects queries") {
    val t = new CoverTree[Vec](EuclideanMetric)
    intercept[IllegalArgumentException](t.nearest(Array(0.0)))
  }
}
