package repro.core

import repro.SparkSpec
import repro.web.Verticals

class TrainerSpec extends SparkSpec {
  import spark.implicits._

  test("NodeClassifier softmax sums to one") {
    val c = new Trainer.NodeClassifier(Vector("A", "B", "OTHER"), Map("f1" -> 0, "f2" -> 1),
      Array(Array(0.0, 0.0), Array(0.1, 0.1), Array(0.0, 0.0)), Array(0.0, 0.5, -0.5))
    val p = c.probabilities(Seq("f1", "f2"))
    assert(math.abs(p.sum - 1.0) < 1e-9)
    assert(p.forall(x => x >= 0 && x <= 1))
  }
  test("NodeClassifier predict returns argmax") {
    val c = new Trainer.NodeClassifier(Vector("A", "OTHER"), Map("fa" -> 0),
      Array(Array(5.0), Array(0.0)), Array(0.0, 0.0))
    assert(c.predict(Seq("fa"))._1 == "A")
    assert(c.predict(Seq("fz"))._2 == 0.5) // no signal: uniform over 2 classes
  }
  test("NodeClassifier drops unseen features: margins stay at the intercepts") {
    val intercept = Array(0.3, -0.2, 0.1)
    val c = new Trainer.NodeClassifier(Vector("A", "B", "OTHER"), Map("f" -> 0),
      Array(Array(1.0), Array(2.0), Array(3.0)), intercept)
    val z = intercept.map(math.exp).sum
    assert(c.probabilities(Seq("unseen", "also-unseen")).toVector == c.probabilities(Nil).toVector)
    c.probabilities(Seq("unseen")).zip(intercept).foreach { case (p, b) =>
      assert(math.abs(p - math.exp(b) / z) < 1e-12)
    }
  }

  test("train learns a separable toy problem") {
    implicit val s = spark
    val examples = spark.createDataset(
      (1 to 50).flatMap(i => Seq(
        Trainer.Example("X", Seq("isx", s"noise$i")),
        Trainer.Example("Y", Seq("isy", s"noise$i")),
        Trainer.Example(Trainer.OtherLabel, Seq("iso", s"noise$i")))))
    val m = Trainer.train(examples)
    assert(m.labels.sorted == Vector("OTHER", "X", "Y"))
    assert(m.predict(Seq("isx"))._1 == "X")
    assert(m.predict(Seq("isy"))._1 == "Y")
    assert(m.predict(Seq("iso"))._1 == Trainer.OtherLabel)
  }

  private def assertAllOther(m: Trainer.NodeClassifier): Unit = {
    assert(m.labels == Vector(Trainer.OtherLabel))
    Seq(Nil, Seq("isx"), Seq("never-seen", "isy")).foreach { f =>
      assert(m.predict(f) == (Trainer.OtherLabel, 1.0))
    }
  }

  test("train on only OTHER examples labels every node OTHER with probability 1") {
    implicit val s = spark
    assertAllOther(Trainer.train(spark.createDataset(
      (1 to 20).map(i => Trainer.Example(Trainer.OtherLabel, Seq("iso", s"noise$i"))))))
  }

  test("train on an empty set labels every node OTHER with probability 1") {
    implicit val s = spark
    assertAllOther(Trainer.train(spark.emptyDataset[Trainer.Example]))
  }

  test("train on a single example labels every node OTHER with probability 1") {
    implicit val s = spark
    assertAllOther(Trainer.train(spark.createDataset(Seq(Trainer.Example("X", Seq("isx"))))))
  }

  test("train does not depend on the partitioning of its examples") {
    implicit val s = spark
    val ex = spark.createDataset(
      (1 to 60).flatMap(i => Seq(
        Trainer.Example("X", Seq("isx", s"noise${i % 7}", s"odd${i % 2}")),
        Trainer.Example("Y", Seq("isy", s"noise${i % 5}")),
        Trainer.Example(Trainer.OtherLabel, Seq("iso", s"noise${i % 3}", "isx")))))
    val one   = Trainer.train(ex.repartition(1))
    val eight = Trainer.train(ex.repartition(8))
    assert(one.labels == eight.labels)
    ex.collect().foreach { e =>
      assert(one.probabilities(e.features).toVector == eight.probabilities(e.features).toVector)
    }
  }

  test("buildExamples yields positives for annotations and ~negRatio negatives") {
    implicit val s = spark
    val vd   = Verticals.nbaplayer(nSites = 1, pagesPerSite = 20, seed = 7)
    val site = vd.sites.head
    val pages = spark.createDataset(site.pages)
    val kbB = spark.sparkContext.broadcast(vd.kb)
    val topics = TopicId.identify(pages, kbB).collect().toVector
    val (anns, _) = RelationAnnot.annotateFull(pages, topics, kbB)
    val freqB = spark.sparkContext.broadcast(FeatureGen.frequentStrings(pages))
    val ex = Trainer.buildExamples(pages, anns, freqB, negRatio = 3).collect()
    val nPos = ex.count(_.label != Trainer.OtherLabel)
    val nNeg = ex.count(_.label == Trainer.OtherLabel)
    assert(nPos == anns.size)
    assert(nNeg > 0 && nNeg <= 3 * nPos)
  }

  test("buildExamples excludes same-list templates from negatives") {
    implicit val s = spark
    val vd   = Verticals.movie(nSites = 1, pagesPerSite = 20, seed = 7)
    val site = vd.sites.head
    val pages = spark.createDataset(site.pages)
    val kbB = spark.sparkContext.broadcast(vd.kb)
    val topics = TopicId.identify(pages, kbB).collect().toVector
    val (anns, _) = RelationAnnot.annotateFull(pages, topics, kbB)
    val freqB = spark.sparkContext.broadcast(FeatureGen.frequentStrings(pages))
    val ex = Trainer.buildExamples(pages, anns, freqB, negRatio = 3).collect()
    // Genre lists with >= 2 annotated values: no negative may share their template.
    val posTemplates = anns.filter(_.predicate == "genre")
      .groupBy(a => (a.pageId, repro.dom.XPaths.template(a.xpath)))
      .collect { case ((_, t), as) if as.size >= 2 => t }.toSet
    val negPathFeature = ex.filter(_.label == Trainer.OtherLabel)
      .flatMap(_.features.filter(_.startsWith("p|")))
    posTemplates.foreach(t => assert(!negPathFeature.contains(s"p|$t")))
  }

  test("trained model separates predicates on a real site") {
    implicit val s = spark
    val vd   = Verticals.nbaplayer(nSites = 1, pagesPerSite = 20, seed = 7)
    val site = vd.sites.head
    val pages = spark.createDataset(site.pages)
    val kbB = spark.sparkContext.broadcast(vd.kb)
    val topics = TopicId.identify(pages, kbB).collect().toVector
    val (anns, _) = RelationAnnot.annotateFull(pages, topics, kbB)
    val freqB = spark.sparkContext.broadcast(FeatureGen.frequentStrings(pages))
    val model = Trainer.train(Trainer.buildExamples(pages, anns, freqB))
    assert(model.labels.toSet ==
      Set("team", "height", "weight", RelationAnnot.NamePred, Trainer.OtherLabel))
  }
}
