package perfbench

import org.apache.spark.sql.SparkSession

/** The `--trace 1` measurements: an untraced sequential pass, then a traced
  * sequential pass whose spans and listener counts give the per-layer
  * metrics, then the kernel timings. The traced pass runs on one thread,
  * `longtail` included, so that span windows attribute Spark jobs exactly.
  */
object LayerTrace {

  case class Out(metrics: Vector[(String, Double, String)], gates: Vector[Gate], extraPasses: Vector[Pass])

  private val Stages = Vector("cluster.template", "core.alg1", "core.alg2", "core.freq", "core.train", "core.extract")

  /** `parWallS` is the median untraced wall time of the workload's own passes. */
  def measure(w: Workload, seed: Long, reference: Option[Vector[repro.core.Ceres.Result]], parWallS: Double,
      cores: Int, log: JobLog, genSeconds: Double)(implicit spark: SparkSession): Out = {
    val seqPass   = if (w.parallel) Some(BenchMain.pass(w, parallel = false)) else None
    val untracedS = seqPass.map(_.seconds).getOrElse(parWallS)

    val tr     = new Tracer
    val traced = w.sites.map(s => Guard(s.name)(StageTrace.run(s, tr)))
    val sites  = traced.collect { case Right(st) => st }
    val tracedS = sites.map(_.seconds).sum
    log.drain()

    val windows = tr.spans.map(s => s.name -> log.within(s.fromMs, s.toMs))
    def stage(name: String): (Double, Double) =
      (tr.spans.filter(_.name == name).map(_.seconds).sum, windows.filter(_._1 == name).map(_._2._1).sum.toDouble)
    val jobs   = windows.map(_._2._1).sum.toDouble
    val tasks  = windows.map(_._2._2).sum.toDouble
    val taskS  = windows.map(_._2._3).sum

    val results   = sites.map(_.result)
    val trained   = sites.flatMap(_.trained)
    val topics    = results.map(_.topics.size).sum.toDouble
    val kept      = results.map(_.keptTopics.size).sum.toDouble
    val extracted = results.map(_.extractions.size).sum.toDouble
    val trainPages = w.sites.map(s => if (s.trainIds.isEmpty) s.pages.size else s.trainIds.size).sum.toDouble
    val scoredNodes = sites.map(st => st.trained.map(t => st.clusterTextNodes.getOrElse(t.cluster, 0L)).sum).sum
    val genS = Stats.median(Vector(genSeconds) ++ (1 to 2).map { _ =>
      val t0 = System.nanoTime(); Workloads(w.name, seed); BenchMain.secondsSince(t0)
    })

    val stageMetrics = Stages.flatMap { n =>
      val (s, j) = stage(n)
      Vector((s"$n.s", s, "s"), (s"$n.jobs", j, "count"))
    }
    val kernels = trained.headOption
      .map(t => Kernels.measure(w, t.model, t.frequent))
      .getOrElse(Vector.empty)
      .map { case (k, v) => (k, v, if (k.endsWith(".us")) "us" else "count") }

    val metrics = stageMetrics ++ Vector(
      ("core.train.examples", trained.map(_.examples.count()).sum.toDouble, "count"),
      ("core.train.model_bytes", trained.map(t => StageTrace.serializedBytes(t.model)).sum.toDouble, "bytes"),
      ("core.train.clusters_skipped", sites.map(st => st.clusters - st.trained.size).sum.toDouble, "count"),
      ("spark.jobs", jobs, "count"),
      ("spark.tasks", tasks, "count"),
      ("spark.task_s", taskS, "s"),
      ("spark.busy_frac", Stats.ratio(taskS, tracedS * cores), "ratio"),
      ("core.alg1.topic_frac", Stats.ratio(topics, trainPages), "ratio"),
      ("core.alg2.annotations", results.map(_.annotations.size).sum.toDouble, "count"),
      ("core.alg2.kept_frac", Stats.ratio(kept, topics), "ratio"),
      ("core.extract.extractions", extracted, "count"),
      ("core.extract.yield", Stats.ratio(extracted, scoredNodes.toDouble), "ratio"),
      ("cluster.template.clusters", sites.map(_.clusters).sum.toDouble, "count"),
      ("exp.Par.speedup", Stats.ratio(tracedS, parWallS), "ratio"),
      ("exp.site_s_max", sites.map(_.seconds).maxOption.getOrElse(0.0), "s"),
      ("kb.bytes", w.sites.map(_.kb).distinct.map(StageTrace.serializedBytes).sum.toDouble, "bytes"),
      ("web.gen_s", genS, "s"),
      ("trace.overhead_s", tracedS - untracedS, "s"),
    ) ++ kernels

    val same = reference.exists { ref =>
      traced.size == ref.size && traced.zip(ref).forall {
        case (Right(st), r) => st.result.extractions.map(Workloads.key).toSet == r.extractions.map(Workloads.key).toSet
        case _              => false
      }
    }
    val tracedPass = Pass(tracedS, traced.map(_.map(st => (st.result, st.seconds))))
    Out(metrics, Vector(Gate("traced_pass_equals_ceres_run", if (same) 1 else 0, same)),
      seqPass.toVector :+ tracedPass)
  }
}
