package blendbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.jobs.JobSession
import repro.lake.Lake

/** One benchmark run:
  * {{{
  *   blendbench.Main --workload blend|bno --seed N --seconds S --trace 0|1
  * }}}
  * Creates the session through the program's job entry point, sets up the
  * lakes and their indexes once, warms up with one round, then
  * repeats the round until S seconds have passed, checks every output
  * against results computed without Spark, and prints the metrics. The
  * last line of standard output is the result object.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean)

  val workloads = Seq("blend", "bno")

  private def usage(msg: String): Nothing = {
    Console.err.println(s"blendbench: $msg\nusage: --workload ${workloads.mkString("|")} --seed N --seconds S --trace 0|1")
    sys.exit(2)
  }

  def parse(args: Array[String]): Opts = {
    if (args.length % 2 != 0) usage("arguments come in --name value pairs")
    val kv = args.grouped(2).map(a => a(0) -> a(1)).toMap
    def get(k: String) = kv.getOrElse(k, usage(s"missing $k"))
    def num(k: String) = get(k).toLongOption.getOrElse(usage(s"$k must be an integer"))
    val unknown = kv.keySet -- Set("--workload", "--seed", "--seconds", "--trace")
    if (unknown.nonEmpty) usage(s"unknown argument ${unknown.head}")
    val w = get("--workload")
    if (!workloads.contains(w)) usage(s"unknown workload $w")
    val seconds = num("--seconds")
    if (seconds < 1 || seconds > 600) usage("--seconds must be between 1 and 600")
    val trace = get("--trace") match {
      case "0" => false
      case "1" => true
      case t   => usage(s"--trace must be 0 or 1, not $t")
    }
    Opts(w, num("--seed"), seconds.toInt, trace)
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val spark = JobSession.create(s"blendbench-${opts.workload}")
    val code =
      try { new Run(spark, opts).apply(); 0 }
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
      finally spark.stop()
    sys.exit(code)
  }

  def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile, `q` in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  /** The highest of p99.9, p99, p90 and p75 with at least ten samples
    * beyond it; none below forty samples, where a tail is not measured.
    */
  def tail(xs: Seq[Double]): Option[(String, Double)] =
    Seq(0.999 -> "p99.9", 0.99 -> "p99", 0.9 -> "p90", 0.75 -> "p75").collectFirst {
      case (q, label) if xs.size * (1 - q) >= 10 - 1e-9 => label -> quantile(xs, q)
    }

  /** A metric that is not a finite number prints as NaN or Infinity,
    * which no JSON reader accepts, so the run fails rather than report it.
    */
  def json(metrics: Seq[(String, Double, String)]): String =
    metrics.map { case (n, v, u) => s""""$n": {"value": $v, "unit": "$u"}""" }.mkString("{", ", ", "}")
}

/** The indexes of a run and the lakes they were built from. */
final case class Built(lakes: Workload.Lakes, gIdx: AllTables, nycIdx: AllTables) {
  def idx(op: Workload.Op): AllTables = if (op.nyc) nycIdx else gIdx
}

/** Outcome of one execution of an operation. */
final case class Exec(op: Workload.Op, ms: Double, out: Either[Throwable, Any])

/** State and phases of one run. */
final class Run(spark: SparkSession, opts: Main.Opts) {
  import Main._
  import Workload._

  private def uptimeS = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
  private val sessionS = uptimeS
  private val sc = spark.sparkContext
  private val counter = new TaskCounter
  sc.addSparkListener(counter)
  private val tracer = new Tracer(spark)

  private var attempted = 0L
  private var failed = 0L
  private var mismatched = 0L
  private val problems = mutable.ArrayBuffer.empty[String]

  private def fail(what: String, why: String, mismatch: Boolean): Unit = {
    failed += 1
    if (mismatch) mismatched += 1
    if (problems.size < 10) problems += s"$what: $why"
  }

  /** Lake generation and the builds of both indexes, timed apart. */
  private def setUp(): (Built, Double, Double) = {
    val t0 = System.nanoTime()
    val lakes = Workload.lakes(opts.seed)
    val genMs = ms(t0)
    val t1 = System.nanoTime()
    val gIdx = AllTables.build(spark, lakes.mixed.lake.cellsDF(spark))
    val nycIdx = AllTables.build(spark, lakes.corr.lake.cellsDF(spark))
    (Built(lakes, gIdx, nycIdx), genMs, ms(t1))
  }

  def apply(): Unit = {
    // ---------------------------------------------------------- set-up
    val (b, genMs, buildMs) = setUp()
    val setUpAt = uptimeS
    val setupS = setUpAt

    // Each index check is one operation.
    def checked(name: String, idx: AllTables, lake: Lake): Reference = {
      attempted += 1
      val ties =
        try {
          val o = IndexCheck(idx, lake)
          if (o.problems.nonEmpty) fail(name, o.problems.mkString("; "), mismatch = true)
          o.ties
        } catch { case NonFatal(e) => fail(name, e.toString, mismatch = false); Map.empty[(Long, Int, Int), Boolean] }
      new Reference(lake, ties)
    }
    val gRef = checked("gittables-lite index", b.gIdx, b.lakes.mixed.lake)
    val nycRef = checked("nyc-lite index", b.nycIdx, b.lakes.corr.lake)

    tracer.drain()
    val storage = sc.getRDDStorageInfo  // the two cached indexes
    val indexMb = storage.map(_.memSize).sum / 1e6
    val partitions = storage.map(_.numPartitions).sum

    // ------------------------------------------------ operations, expected
    val optimize = opts.workload == "blend"
    val gExecutor = new Executor(spark, b.gIdx, optimize = optimize)
    val nycExecutor = new Executor(spark, b.nycIdx, optimize = optimize)
    val ops = Workload.round(b.lakes, opts.seed)
    val expected: Map[String, Any] = ops.map {
      case SeekOp(n, s)      => n -> gRef.ranking(s)
      case PlanOp(n, p, nyc) => n -> (if (nyc) nycRef else gRef).plan(p)
    }.toMap

    val replays = new Replays
    def execute(op: Op, traced: Boolean): Exec = {
      val isMc = op match { case SeekOp(_, _: McSeeker) => true; case _ => false }
      val before = if (traced && isMc) { tracer.drain(); tracer.catalyst.execMs.sum } else 0.0
      val t0 = System.nanoTime()
      val out =
        try Right(op match {
          case SeekOp(_, s: McSeeker) => s.runDetailed(b.gIdx)
          case SeekOp(_, s)           => s.run(b.gIdx)
          case PlanOp(_, p, nyc)      => (if (nyc) nycExecutor else gExecutor).execute(p)
        })
        catch { case NonFatal(e) => Left(e) }
      val took = ms(t0)
      if (traced) (op, out) match {
        case (SeekOp(_, _: McSeeker), Right(d: McDetails)) =>
          tracer.drain()
          replays.mcAppMs += took - (tracer.catalyst.execMs.sum - before)
          replays.mcCandidates += d.fetched.toDouble
        case (PlanOp(_, p, _), Right(r: PlanResult)) =>
          replays.plan(p, r, b.idx(op), optimize)
        case _ =>
      }
      Exec(op, took, out)
    }

    // Warm-up operations are checked and counted like timed ones, so a
    // failing operation is the same share of `attempted` in every run.
    def check(e: Exec): Unit = {
      attempted += 1
      val want = expected(e.op.name)
      e.out match {
        case Left(err) => fail(e.op.name, err.toString, mismatch = false)
        case Right(got) =>
          val ok = (got, want) match {
            case (d: McDetails, w: Seq[Scored @unchecked]) => Reference.same(d.ranking, w)
            case (r: Seq[Scored @unchecked], w: Seq[Scored @unchecked]) => Reference.same(r, w)
            case (r: PlanResult, w: Map[String @unchecked, Seq[Scored] @unchecked]) =>
              e.op.asInstanceOf[PlanOp].plan.sinks.forall(s => Reference.same(r(s), w(s)))
            case _ => false
          }
          if (!ok) fail(e.op.name, "output differs from the reference", mismatch = true)
      }
    }

    val expectedAt = uptimeS

    // ---------------------------------------------------------- warm-up
    ops.foreach(op => check(execute(op, traced = false)))

    // ------------------------------------------------------------ timed
    // Whole rounds, at least two, ending at the round boundary nearest to
    // the time limit. A traced run times at least four rounds and traces
    // every other operation: the even ones in rounds 0 and 3, the odd ones
    // in rounds 1 and 2. Every operation is then timed traced and untraced
    // once early and once late, so the JIT's warm-up through the first
    // rounds falls on both sides alike, wherever the plans sit in a round.
    val warmAt = uptimeS
    tracer.drain()
    val tasks0 = counter.tasks.get
    val host0 = HostSample.now()
    val t0 = System.nanoTime()
    val rounds = mutable.ArrayBuffer.empty[Vector[(Boolean, Exec)]]
    def more = rounds.size < (if (opts.trace) 4 else 2) ||
      ms(t0) * (1 + 0.5 / rounds.size) < opts.seconds * 1e3
    while (more) {
      val r = rounds.size
      rounds += ops.zipWithIndex.map { case (op, i) =>
        val traced = opts.trace && (i + r + r / 2) % 2 == 0
        if (traced) tracer.attach()
        val e = execute(op, traced)
        if (traced) tracer.detach()
        traced -> e
      }
    }
    val wallS = ms(t0) / 1e3
    tracer.drain()
    val host1 = HostSample.now()
    val nOps = rounds.map(_.size).sum
    val tasksPerOp = (counter.tasks.get - tasks0).toDouble / nOps

    val timedAt = uptimeS
    rounds.foreach(_.foreach(te => check(te._2)))

    // --------------------------------------------------------- metrics
    val execs = rounds.flatMap(_.map(_._2))
    def latencies(tpe: SeekerType) = execs.collect { case Exec(SeekOp(_, s), t, _) if s.seekerType == tpe => t }.toSeq
    val planRoundMs = rounds.map(_.collect { case (_, Exec(_: PlanOp, t, _)) => t }.sum).toSeq
    val steal = host1.stealPctSince(host0)
    val cpuPerOp = host1.cpuMsSince(host0) / nOps

    val series = Seq("sc_ms" -> latencies(SeekerType.SC), "kw_ms" -> latencies(SeekerType.KW), "mc_ms" -> latencies(SeekerType.MC),
      "c_ms" -> latencies(SeekerType.C), "plan_ms" -> planRoundMs)
    println(f"blendbench workload=${opts.workload} seed=${opts.seed} trace=${if (opts.trace) 1 else 0} " +
      f"rounds=${rounds.size} ops=$nOps wall_s=$wallS%.2f steal_pct=$steal%.2f cpu_ms_per_op=$cpuPerOp%.1f")
    for ((name, xs) <- series) {
      val tl = tail(xs).fold("")(t => f", ${t._1} ${t._2}%.1f")
      println(f"  $name%-8s median ${median(xs)}%.1f$tl (n=${xs.size})")
    }
    println("  rounds_ms " + rounds.map(r => f"${r.map(_._2.ms).sum}%.0f").mkString(" "))
    println("  op_ms " + ops.indices.map(i => ops(i).name + " " + rounds.map(r => f"${r(i)._2.ms}%.0f").mkString("/")).mkString(", "))
    println(f"  phases_s session $sessionS%.1f set-up ${setUpAt - sessionS}%.1f checks+expected ${expectedAt - setUpAt}%.1f " +
      f"warm-up ${warmAt - expectedAt}%.1f timed ${timedAt - warmAt}%.1f output-checks ${uptimeS - timedAt}%.1f")
    problems.foreach(p => println(s"  FAILED $p"))

    val metrics =
      if (!opts.trace) Seq(
        ("setup_s", setupS, "s"),
        ("index_mb", indexMb, "MB"),
        ("sc_ms", median(latencies(SeekerType.SC)), "ms"),
        ("kw_ms", median(latencies(SeekerType.KW)), "ms"),
        ("mc_ms", median(latencies(SeekerType.MC)), "ms"),
        ("c_ms", median(latencies(SeekerType.C)), "ms"),
        ("plan_ms", median(planRoundMs), "ms"),
        ("ops_per_s", nOps / wallS, "op/s"),
        ("tasks_per_op", tasksPerOp, "tasks"),
      )
      else {
        val traced = rounds.flatten.collect { case (true, e) => e }
        val untraced = rounds.flatten.collect { case (false, e) => e }
        val perOp = traced.size.toDouble
        val nPlans = traced.count(_.op.isInstanceOf[PlanOp]).toDouble
        def opMedians(xs: Seq[Exec]) = xs.groupBy(_.op.name).values.map(es => median(es.map(_.ms))).sum
        val overheadPct = 100 * (opMedians(traced.toSeq) / opMedians(untraced.toSeq) - 1)
        val e = tracer.engine
        val q = tracer.catalyst
        Seq(
          ("spark.jobs_per_op", e.jobs.get / perOp, "jobs"),
          ("spark.stages_per_op", e.stages.get / perOp, "stages"),
          ("spark.sched_delay_ms_per_op", e.schedDelayMs.sum / perOp, "ms"),
          ("spark.task_ms_per_op", e.taskMs.sum / perOp, "ms"),
          ("spark.gc_ms_per_op", e.gcMs.sum / perOp, "ms"),
          ("spark.shuffle_write_kb_per_op", e.shuffleWriteBytes.sum / 1024 / perOp, "KiB"),
          ("spark.shuffle_read_kb_per_op", e.shuffleReadBytes.sum / 1024 / perOp, "KiB"),
          ("spark.cached_batches_read_per_op", e.cachedBatches.sum / perOp, "batches"),
          ("scan.rows_out_per_op", q.scanRows.sum / perOp, "rows"),
          ("catalyst.queries_per_op", q.queries.get / perOp, "queries"),
          ("catalyst.analysis_ms_per_op", q.analysisMs.sum / perOp, "ms"),
          ("catalyst.optimization_ms_per_op", q.optimizationMs.sum / perOp, "ms"),
          ("catalyst.planning_ms_per_op", q.planningMs.sum / perOp, "ms"),
          ("ir.rewrites_per_op", q.rewritten.get / perOp, "rewrites"),
          ("ir.ids_per_rewrite", if (q.rewritten.get == 0) 0.0 else q.rewrittenIds.get.toDouble / q.rewritten.get, "ids"),
          ("ir.unrewritten", q.unrewritten.get.toDouble, "count"),
          ("mc.app_ms_per_call", replays.mcAppMs.sum / replays.mcAppMs.size, "ms"),
          ("mc.candidates_per_call", replays.mcCandidates.sum / replays.mcCandidates.size, "rows"),
          ("driver.rows_collected_per_op", q.rowsCollected.sum / perOp, "rows"),
          ("executor.seeker_ms_per_plan", replays.seekerMs / nPlans, "ms"),
          ("executor.overhead_ms_per_plan", replays.overheadMs / nPlans, "ms"),
          ("optimizer.order_ms_per_plan", replays.orderMs / nPlans, "ms"),
          ("combiners.ms_per_plan", replays.combineMs / nPlans, "ms"),
          ("lake.gen_ms", genMs, "ms"),
          ("alltables.build_ms", buildMs, "ms"),
          ("alltables.partitions", partitions.toDouble, "partitions"),
          ("alltables.value_freq_entries", (b.gIdx.valueFreq.size + b.nycIdx.valueFreq.size).toDouble, "entries"),
          ("host.steal_pct", steal, "%"),
          ("host.cpu_ms_per_op", cpuPerOp, "ms"),
          ("trace.overhead_pct", overheadPct, "%"),
        )
      }
    println(s"""{"correct": ${mismatched == 0}, "attempted": $attempted, "failed": $failed, "metrics": ${json(metrics)}}""")
  }
}

/** Timings taken by replaying public functions on what a traced plan
  * execution recorded: the executor's own split, the optimizer's ordering
  * of each execution group (where the executor optimizes; B-NO orders
  * nothing), and each combiner on its recorded inputs.
  */
final class Replays {
  val mcAppMs = mutable.ArrayBuffer.empty[Double]
  val mcCandidates = mutable.ArrayBuffer.empty[Double]
  var seekerMs, overheadMs, orderMs, combineMs = 0.0

  def plan(p: Plan, r: PlanResult, idx: AllTables, optimize: Boolean): Unit = {
    val seekers = r.seekerMs.values.sum
    seekerMs += seekers
    overheadMs += r.totalMs - seekers
    if (optimize) for (members <- Optimizer.executionGroups(p).values) {
      val t0 = System.nanoTime()
      Optimizer.orderSeekers(members, idx, CostModel.untrained)
      orderMs += Main.ms(t0)
    }
    for (c <- p.combiners) {
      val inputs = c.inputs.map(r.results)
      val t0 = System.nanoTime()
      c.combiner(inputs)
      combineMs += Main.ms(t0)
    }
  }
}
