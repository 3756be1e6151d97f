package perfbench

import java.io.{ByteArrayOutputStream, ObjectOutputStream}
import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{Encoders, SparkSession}

import repro.cluster.TemplateClustering
import repro.core.{Ceres, FeatureGen, RelationAnnot, TopicId, Trainer, Extractor}

/** Job starts and task ends seen on the scheduler's listener bus.
  *
  * Events arrive asynchronously: read them only after [[drain]], which runs a
  * sentinel job and waits for its end event, so every event posted before it
  * has been delivered to this listener.
  */
final class JobLog extends SparkListener {
  private val jobTimes = new ConcurrentLinkedQueue[java.lang.Long]() // job submission, epoch ms
  private val tasks    = new ConcurrentLinkedQueue[(Long, Long)]()   // (launch epoch ms, duration ms)
  @volatile private var sentinelJob = -1
  @volatile private var sentinelDone = new CountDownLatch(1)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    if (Option(e.properties).exists(_.getProperty(JobLog.DescKey) == JobLog.Sentinel)) sentinelJob = e.jobId
    else jobTimes.add(e.time)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    tasks.add((e.taskInfo.launchTime, e.taskInfo.duration))

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (e.jobId == sentinelJob) sentinelDone.countDown()

  def drain()(implicit spark: SparkSession): Unit = {
    sentinelDone = new CountDownLatch(1)
    val sc = spark.sparkContext
    sc.setJobDescription(JobLog.Sentinel)
    try sc.parallelize(Seq(0), 1).count()
    finally sc.setJobDescription(null)
    require(sentinelDone.await(60, TimeUnit.SECONDS), "listener events were not delivered within 60 s")
  }

  /** (jobs, tasks, task seconds) started within [fromMs, toMs]. */
  def within(fromMs: Long, toMs: Long): (Int, Int, Double) = {
    val in = (t: Long) => t >= fromMs && t <= toMs
    val ts = tasks.asScala.filter(t => in(t._1))
    (jobTimes.asScala.count(t => in(t)), ts.size, ts.iterator.map(_._2).sum / 1e3)
  }
}

object JobLog {
  val DescKey  = "spark.job.description"
  val Sentinel = "perfbench-listener-drain"
}

/** Spans of one traced pass, in call order. Spans never share a millisecond, so
  * a job or task belongs to the span whose window holds its start time; this
  * holds only while one thread runs the traced pass.
  */
final class Tracer {
  case class Span(name: String, fromMs: Long, toMs: Long, seconds: Double)

  val spans = ArrayBuffer.empty[Span]
  private var lastMs = 0L

  def apply[A](name: String)(body: => A): A = {
    var from = System.currentTimeMillis()
    while (from <= lastMs) { Thread.onSpinWait(); from = System.currentTimeMillis() }
    val t0 = System.nanoTime()
    val r  = body
    val s  = (System.nanoTime() - t0) / 1e9
    lastMs = System.currentTimeMillis()
    spans += Span(name, from, lastMs, s)
    r
  }
}

/** `Ceres.run`'s stage composition with a span around each public stage call.
  *
  * It must stay the same composition as `Ceres.run`: the benchmark checks that
  * both give the same extraction set, and adds no Spark action inside a span.
  */
object StageTrace {

  case class Trained(examples: org.apache.spark.sql.Dataset[Trainer.Example],
      model: Trainer.NodeClassifier, frequent: Set[String], cluster: Int)

  case class SiteTrace(result: Ceres.Result, seconds: Double, clusters: Int, trained: Vector[Trained],
      clusterTextNodes: Map[Int, Long])

  def run(site: Site, tr: Tracer)(implicit spark: SparkSession): SiteTrace = {
    import spark.implicits._
    val cfg = Ceres.Config()
    val t0  = System.nanoTime()
    val pages    = spark.createDataset(site.pages)(Encoders.product)
    val trainIds = site.trainIds
    val kbB = spark.sparkContext.broadcast(site.kb)

    val (clustered, clusters) = tr("cluster.template") {
      val c = TemplateClustering.assign(pages, cfg.templateThreshold).cache()
      (c, c.map(_.cluster).distinct().collect().sorted)
    }

    val allTopics   = Vector.newBuilder[TopicId.PageTopic]
    val allKept     = Vector.newBuilder[TopicId.PageTopic]
    val allAnnots   = Vector.newBuilder[RelationAnnot.Annotation]
    val allExtracts = Vector.newBuilder[Extractor.Extraction]
    val trained     = Vector.newBuilder[Trained]

    clusters.foreach { c =>
      val sub      = clustered.filter(_.cluster == c).cache()
      val trainSub = (if (trainIds.isEmpty) sub else sub.filter(p => trainIds.contains(p.pageId))).cache()

      val topics = tr("core.alg1")(TopicId.identify(trainSub, kbB, cfg.maxTopicPages).collect().toVector)
      allTopics ++= topics

      val (annots, kept) = tr("core.alg2")(cfg.mode match {
        case Ceres.Full      => RelationAnnot.annotateFull(trainSub, topics, kbB, cfg.minAnnotations)
        case Ceres.TopicOnly => RelationAnnot.annotateTopicOnly(trainSub, topics, kbB, cfg.minAnnotations)
      })
      allKept ++= kept
      allAnnots ++= annots

      if (kept.size >= cfg.minAnnotatedPages) {
        val freq  = tr("core.freq")(FeatureGen.frequentStrings(trainSub, cfg.freqMinFrac))
        val freqB = spark.sparkContext.broadcast(freq)
        // buildExamples is lazy: the fit forces it, so both belong to one span.
        val (examples, model) = tr("core.train") {
          val ex = Trainer.buildExamples(trainSub, annots, freqB, cfg.negRatio, cfg.seed)
          (ex, Trainer.train(ex))
        }
        val modelB = spark.sparkContext.broadcast(model)
        allExtracts ++= tr("core.extract")(Extractor.extract(sub, modelB, freqB, cfg.threshold).collect())
        trained += Trained(examples, model, freq, c)
      }
      trainSub.unpersist()
      sub.unpersist()
    }
    val seconds = (System.nanoTime() - t0) / 1e9
    // Outside the site's time and every span: text nodes per cluster, for the extraction yield.
    val textNodes = clustered.map(p => (p.cluster, p.textNodes.size.toLong)).collect()
      .groupMapReduce(_._1)(_._2)(_ + _)
    clustered.unpersist()

    SiteTrace(Ceres.Result(allTopics.result(), allKept.result(), allAnnots.result(), allExtracts.result()),
      seconds, clusters.length, trained.result(), textNodes)
  }

  /** Java-serialized size, as a broadcast with the default serializer ships it. */
  def serializedBytes(o: AnyRef): Long = {
    val bytes = new ByteArrayOutputStream()
    val out   = new ObjectOutputStream(bytes)
    out.writeObject(o)
    out.close()
    bytes.size().toLong
  }
}
