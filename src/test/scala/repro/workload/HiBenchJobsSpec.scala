package repro.workload

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** Correctness of the real DataFrame workloads, oracle-checked against
  * DuckDB where the computation is SQL-expressible. SF=0.01 keeps inputs
  * ~tens of MB. */
class HiBenchJobsSpec extends SparkSpec {
  private val SF = 0.01

  test("wordcount matches DuckDB group-by counts") {
    val docs = HiBenchJobs.documents(spark, SF).cache()
    val got = docs.groupBy("word").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(got,
      "SELECT word, count(*) AS cnt FROM docs GROUP BY word",
      "docs" -> docs)
    docs.unpersist()
  }

  test("wordcount respects zipf skew: max count >> median") {
    val counts = HiBenchJobs.wordCount(spark, SF).collect().map(_.getLong(1)).sorted
    assert(counts.last > counts(counts.length / 2) * 10)
  }

  test("sort output is globally ordered") {
    val rows = HiBenchJobs.sortJob(spark, SF).select("k").collect().map(_.getLong(0))
    assert(rows.zip(rows.tail).forall { case (a, b) => a <= b })
  }

  test("sort preserves multiset of keys (oracle)") {
    val sorted = HiBenchJobs.sortJob(spark, SF)
    val got = sorted.groupBy("k").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(got,
      "SELECT k, count(*) AS cnt FROM sorted GROUP BY k",
      "sorted" -> sorted)
  }

  test("terasort partitions are internally sorted and range-disjoint") {
    val df = HiBenchJobs.teraSort(spark, SF)
    val parts: Array[(Int, Seq[String])] = df.select("key").rdd
      .mapPartitionsWithIndex { (i, it) => Iterator((i, it.map(_.getString(0)).toSeq)) }
      .collect()
    parts.foreach { case (_, ks) =>
      assert(ks.zip(ks.tail).forall { case (a, b) => a <= b })
    }
    val nonEmpty = parts.filter(_._2.nonEmpty).sortBy(_._1)
    nonEmpty.zip(nonEmpty.tail).foreach { case ((_, a), (_, b)) =>
      assert(a.last <= b.head)
    }
  }

  test("bayes class/word counts match DuckDB") {
    val docs = HiBenchJobs.documents(spark, SF, seed = 31)
      .withColumn("label", pmod(col("line"), lit(5))).cache()
    val got = docs.groupBy("label", "word").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(got,
      "SELECT label, word, count(*) AS cnt FROM docs GROUP BY label, word",
      "docs" -> docs)
    docs.unpersist()
  }

  test("kmeans produces k centers inside the unit cube") {
    val centers = HiBenchJobs.kMeans(spark, SF, k = 4, iters = 2).collect()
    assert(centers.length == 4)
    centers.foreach { r =>
      (1 to 3).foreach(i => assert(r.getDouble(i) >= 0.0 && r.getDouble(i) <= 1.0))
    }
  }

  test("kmeans iterations reduce within-cluster distance") {
    // Lloyd's algorithm is monotone in total within-cluster SSE; proxy:
    // centers move less between later iterations (convergence).
    val c2 = HiBenchJobs.kMeans(spark, SF, k = 3, iters = 2).collect()
      .map(r => (r.getInt(0), (r.getDouble(1), r.getDouble(2), r.getDouble(3)))).toMap
    val c3 = HiBenchJobs.kMeans(spark, SF, k = 3, iters = 3).collect()
      .map(r => (r.getInt(0), (r.getDouble(1), r.getDouble(2), r.getDouble(3)))).toMap
    val c6 = HiBenchJobs.kMeans(spark, SF, k = 3, iters = 6).collect()
      .map(r => (r.getInt(0), (r.getDouble(1), r.getDouble(2), r.getDouble(3)))).toMap
    def dist(a: Map[Int, (Double, Double, Double)], b: Map[Int, (Double, Double, Double)]) =
      a.keys.map { k =>
        val (x1, y1, z1) = a(k); val (x2, y2, z2) = b(k)
        math.sqrt(math.pow(x1 - x2, 2) + math.pow(y1 - y2, 2) + math.pow(z1 - z2, 2))
      }.sum
    assert(dist(c3, c6) <= dist(c2, c3) + 0.15)
  }

  test("pagerank ranks are positive and damped around 0.15 minimum") {
    val ranks = HiBenchJobs.pageRank(spark, SF, iters = 2).collect()
    assert(ranks.nonEmpty)
    ranks.foreach(r => assert(r.getDouble(1) >= 0.1499))
  }

  test("pagerank: high in-degree vertices outrank low in-degree ones") {
    val e = HiBenchJobs.edges(spark, SF).cache()
    val inDeg = e.groupBy("dst").agg(count(lit(1)) as "deg")
    val ranks = HiBenchJobs.pageRank(spark, SF, iters = 3)
    val joined = ranks.join(inDeg, ranks("v") === inDeg("dst"))
      .select("rank", "deg").collect().sortBy(_.getLong(1))
    val lo = joined.take(20).map(_.getDouble(0))
    val hi = joined.takeRight(20).map(_.getDouble(0))
    assert(hi.sum / hi.length > lo.sum / lo.length)
    e.unpersist()
  }

  test("nweight two-hop weights match a DuckDB self-join") {
    val e = HiBenchJobs.edges(spark, 0.003, seed = 61).withColumn("w", round(rand(62), 4))
    val a = e.select(col("src") as "a_src", col("dst") as "a_dst", col("w") as "a_w")
    val b = e.select(col("src") as "b_src", col("dst") as "b_dst", col("w") as "b_w")
    val got = a.join(b, a("a_dst") === b("b_src"))
      .where(col("a_src") =!= col("b_dst"))
      .groupBy(col("a_src") as "src", col("b_dst") as "dst")
      .agg(round(sum(col("a_w") * col("b_w")), 4) as "weight")
    Oracle.assertEquivalent(got,
      """SELECT e1.src AS src, e2.dst AS dst,
         ROUND(SUM(CAST(e1.w AS DOUBLE) * CAST(e2.w AS DOUBLE)), 4) AS weight
         FROM edges e1 JOIN edges e2 ON e1.dst = e2.src
         WHERE e1.src <> e2.dst GROUP BY e1.src, e2.dst""",
      "edges" -> e)
  }

  test("logistic regression learns the separating direction") {
    val w = HiBenchJobs.logisticRegression(spark, SF, iters = 8, lr = 1.0).collect()(0)
    // Labels: x1 + 2·x2 − x3 > 1 → expect w1,w2 > 0 and w2 > w1 > w3-direction.
    assert(w.getDouble(0) > 0.0)
    assert(w.getDouble(1) > w.getDouble(0))
    assert(w.getDouble(2) < w.getDouble(1))
  }

  test("gram matrix matches DuckDB sums of products") {
    val rows = math.max(1000L, (500000 * 0.005).toLong)
    val data = repro.SynthData.uniformKeys(spark, rows, 100, seed = 81)
      .select(round(rand(82), 4) as "x1", round(rand(83), 4) as "x2",
              round(rand(84), 4) as "x3")
    val got = data.agg(
      round(sum(col("x1") * col("x1")), 2) as "g11",
      round(sum(col("x1") * col("x2")), 2) as "g12",
      round(sum(col("x2") * col("x2")), 2) as "g22")
    Oracle.assertEquivalent(got,
      """SELECT ROUND(SUM(CAST(x1 AS DOUBLE)*CAST(x1 AS DOUBLE)), 2) AS g11,
                ROUND(SUM(CAST(x1 AS DOUBLE)*CAST(x2 AS DOUBLE)), 2) AS g12,
                ROUND(SUM(CAST(x2 AS DOUBLE)*CAST(x2 AS DOUBLE)), 2) AS g22
         FROM data""",
      "data" -> data)
  }

  test("byName resolves every registered workload") {
    HiBenchJobs.names.foreach { n =>
      assert(HiBenchJobs.byName(n, spark, 0.001).columns.nonEmpty, n)
    }
    assertThrows[NoSuchElementException](HiBenchJobs.byName("nope", spark, SF))
  }
}
