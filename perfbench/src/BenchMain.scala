package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{ExecutionException, Executors, ThreadFactory, TimeUnit, TimeoutException}
import java.util.concurrent.atomic.AtomicInteger

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.{Encoders, SparkSession}

import repro.core.Ceres
import repro.exp.Par

object Stats {
  def median(xs: Vector[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
    }

  def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b
}

/** Runs a site in its own Spark job group with a time limit: a throw or an
  * overrun becomes a failed operation (the group's jobs are cancelled) and
  * the caller goes on.
  */
object Guard {
  val SiteLimitSeconds = 75.0

  private val ids = new AtomicInteger()
  private val pool = Executors.newCachedThreadPool(new ThreadFactory {
    def newThread(r: Runnable): Thread = { val t = new Thread(r, "perfbench-site"); t.setDaemon(true); t }
  })

  def apply[A](label: String)(body: => A)(implicit spark: SparkSession): Either[String, A] = {
    val sc    = spark.sparkContext
    val group = s"perfbench-${ids.incrementAndGet()}"
    val task  = pool.submit[A] { () =>
      sc.setJobGroup(group, label, interruptOnCancel = true)
      try body finally sc.clearJobGroup()
    }
    try Right(task.get((SiteLimitSeconds * 1e3).toLong, TimeUnit.MILLISECONDS))
    catch {
      case _: TimeoutException =>
        sc.cancelJobGroup(group)
        task.cancel(true)
        Left(s"$label: no result within $SiteLimitSeconds s")
      case e: ExecutionException => Left(s"$label: ${e.getCause}")
    }
  }
}

/** One pass: every site of the workload run once. `runs` is in site order. */
case class Pass(seconds: Double, runs: Vector[Either[String, (Ceres.Result, Double)]]) {
  def results: Option[Vector[Ceres.Result]] =
    if (runs.forall(_.isRight)) Some(runs.map(_.toOption.get._1)) else None
  def failures: Vector[String] = runs.collect { case Left(e) => e }
}

/** The CERES benchmark: `--workload NAME --seed N --seconds S --trace 0|1`.
  *
  * Prints the settings seen, the correctness gate and, as the last line, one
  * JSON object with `correct`, `attempted`, `failed` and `metrics` (the
  * end-to-end metrics, or with `--trace 1` the per-layer ones).
  */
object BenchMain {

  val ShufflePartitions = 16

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def session(cores: Int): SparkSession = {
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("ceres-perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.ui.enabled", false)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", ".bench_build/spark-local")
      .config("spark.sql.warehouse.dir", ".bench_build/spark-warehouse")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    spark
  }

  def runSite(s: Site)(implicit spark: SparkSession): Either[String, (Ceres.Result, Double)] =
    Guard(s.name) {
      val t0 = System.nanoTime()
      val r  = Ceres.run(spark.createDataset(s.pages)(Encoders.product), s.trainIds, s.kb)
      (r, secondsSince(t0))
    }

  def pass(w: Workload, parallel: Boolean)(implicit spark: SparkSession): Pass = {
    val t0   = System.nanoTime()
    val runs = if (parallel) Par.map(w.sites, 4)(runSite) else w.sites.map(runSite)
    Pass(secondsSince(t0), runs)
  }

  private def json(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  private def fail(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg")
    sys.exit(2)
  }

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, fail(s"missing --$k"))
    val name = opt("workload")
    val seed    = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace   = opt("trace") == "1"

    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    implicit val spark: SparkSession = session(cores)
    val log = new JobLog
    spark.sparkContext.addSparkListener(log)
    printSettings()

    val gen0 = System.nanoTime()
    val w    = Workloads(name, seed)
    val genSeconds = secondsSince(gen0)

    // Set-up ends after one untraced warm-up pass: the first pass in a fresh JVM
    // pays for class loading, code generation and JIT compilation.
    val warm    = pass(w, w.parallel)
    val setupS  = (System.currentTimeMillis() - jvmStartMs) / 1e3
    val timedT0 = System.nanoTime()
    val timed   = ArrayBuffer(pass(w, w.parallel))
    while (secondsSince(timedT0) < seconds) timed += pass(w, w.parallel)

    val passes   = ArrayBuffer(warm) ++ timed
    val attempted = timed.map(_.runs.size).sum
    val failed    = timed.map(_.failures.size).sum
    val wallS     = Stats.median(timed.map(_.seconds).toVector)
    val reference = timed.last.results.orElse(warm.results)
    val scored    = reference.map(w.score)
    val gates     = ArrayBuffer.empty[Gate] ++ scored.toVector.flatMap(_._2)

    val metrics: Vector[(String, Double, String)] =
      if (!trace) {
        val prf = scored.map(_._1).getOrElse(repro.core.Metrics.PRF("ALL", 0, 0, 0))
        Vector(
          ("setup_s", setupS, "s"),
          ("wall_s", wallS, "s"),
          ("pages_per_s", Stats.ratio(w.pages, wallS), "1/s"),
          ("site_s_p50", Stats.median(timed.flatMap(_.runs.collect { case Right((_, s)) => s }).toVector), "s"),
          ("precision", prf.p, "ratio"),
          ("recall", prf.r, "ratio"),
          ("f1", prf.f1, "ratio"))
      } else {
        val layer = LayerTrace.measure(w, seed, reference, wallS, cores, log, genSeconds)
        passes ++= layer.extraPasses
        gates ++= layer.gates
        layer.metrics
      }

    val failures = passes.flatMap(_.failures)
    failures.foreach(f => Console.err.println(s"perfbench: failed site run: $f"))
    gates += Gate("no_failed_site_runs", failures.size, failures.isEmpty)
    val digests = passes.flatMap(_.results.map(Workloads.digest)).distinct
    println(s"digest ${digests.mkString(",")} over ${passes.size} passes")
    gates += Gate("passes_give_one_extraction_set", digests.size, digests.size == 1)
    gates.foreach(g => println(f"gate ${g.name} value=${g.value} ${if (g.ok) "PASS" else "FAIL"}"))
    val ms = metrics.map { case (k, v, u) =>
      s"${json(k)}: {\"value\": $v, \"unit\": ${json(u)}}"
    }
    println(s"""{"correct": ${gates.forall(_.ok)}, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${ms.mkString(", ")}}}""")
    System.out.flush()
    spark.stop()
    sys.exit(0)
  }

  /** The engine settings the numbers depend on, as the running session reports them. */
  private def printSettings()(implicit spark: SparkSession): Unit = {
    val sc = spark.sparkContext
    val settings = Vector(
      "master" -> sc.master,
      "default_parallelism" -> sc.defaultParallelism.toString,
      "spark.sql.shuffle.partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "spark.ui.enabled" -> sc.getConf.get("spark.ui.enabled", "true"),
      "log_level" -> org.apache.logging.log4j.LogManager.getRootLogger.getLevel.toString,
      "driver_heap_mb" -> (Runtime.getRuntime.maxMemory >> 20).toString,
      "SPARK_DRIVER_MEM" -> sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)"),
      "available_processors" -> Runtime.getRuntime.availableProcessors.toString,
      "spark_version" -> spark.version,
      "java_version" -> System.getProperty("java.version"))
    println("settings {" + settings.map { case (k, v) => s"${json(k)}: ${json(v)}" }.mkString(", ") + "}")
  }
}
