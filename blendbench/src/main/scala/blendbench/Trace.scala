package blendbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import java.util.concurrent.atomic.{AtomicLong, DoubleAdder}

import org.apache.spark.BenchBus
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.expressions.{AttributeReference, In, InSet}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, AdaptiveSparkPlanHelper}
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.util.QueryExecutionListener

import repro.core.IrPlaceholder

/** Counts Spark tasks. Registered for the whole run: `tasks_per_op` is an
  * end-to-end metric, and a counter is the only way to read it exactly.
  */
final class TaskCounter extends SparkListener {
  val tasks = new AtomicLong
  override def onTaskStart(e: SparkListenerTaskStart): Unit = { tasks.incrementAndGet(); () }
}

/** Engine-side counters of a traced round, summed over its tasks. */
final class SparkTrace extends SparkListener {
  val jobs, stages = new AtomicLong
  val schedDelayMs, taskMs, gcMs, shuffleWriteBytes, shuffleReadBytes, cachedBatches = new DoubleAdder

  override def onJobStart(e: SparkListenerJobStart): Unit = { jobs.incrementAndGet(); () }
  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = { stages.incrementAndGet(); () }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    if (m != null) {
      val i = e.taskInfo
      // The scheduler delay as Spark's UI defines it: task wall time that
      // is neither deserialization, running nor result serialization.
      val wall = i.finishTime - i.launchTime
      schedDelayMs.add(math.max(0L,
        wall - m.executorRunTime - m.executorDeserializeTime - m.resultSerializationTime).toDouble)
      taskMs.add(m.executorRunTime.toDouble)
      gcMs.add(m.jvmGCTime.toDouble)
      shuffleWriteBytes.add(m.shuffleWriteMetrics.bytesWritten.toDouble)
      shuffleReadBytes.add(m.shuffleReadMetrics.totalBytesRead.toDouble)
      // Records read from cached RDD blocks; the cached index stores one
      // columnar batch per record.
      cachedBatches.add(m.inputMetrics.recordsRead.toDouble)
    }
  }
}

/** Catalyst-side counters of a traced round, read from each finished query:
  * planning phase times, the fate of BLEND's IR placeholder, and rows out
  * of the cached-index scan and into the driver.
  */
final class QueryTrace extends QueryExecutionListener with AdaptiveSparkPlanHelper {
  val queries, placeholders, rewritten, unrewritten, rewrittenIds = new AtomicLong
  val analysisMs, optimizationMs, planningMs, execMs, scanRows, rowsCollected = new DoubleAdder

  private def countPlaceholders(p: LogicalPlan): Int =
    p.flatMap(_.expressions.flatMap(_.collect { case x: IrPlaceholder => x })).size

  /** Sizes of the id lists the rewrite rule put in place of placeholders. */
  private def tableIdLists(p: LogicalPlan): Seq[Int] =
    p.flatMap(_.expressions.flatMap(_.collect {
      case In(a: AttributeReference, list) if a.name == "TableId" => list.size
      case InSet(a: AttributeReference, set) if a.name == "TableId" => set.size
    }))

  /** Rows the query hands to the driver: the row count of the topmost plan
    * node that counts its output rows.
    */
  private def outRows(p: SparkPlan): Long = p match {
    case a: AdaptiveSparkPlanExec => outRows(a.executedPlan)
    case _ =>
      p.metrics.get("numOutputRows").map(_.value)
        .getOrElse(if (p.children.size == 1) outRows(p.children.head) else 0L)
  }

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = {
    queries.incrementAndGet()
    val phases = qe.tracker.phases
    def phaseMs(name: String): Double = phases.get(name).map(_.durationMs.toDouble).getOrElse(0.0)
    analysisMs.add(phaseMs("analysis"))
    optimizationMs.add(phaseMs("optimization"))
    planningMs.add(phaseMs("planning"))
    execMs.add(durationNs / 1e6)

    val before = countPlaceholders(qe.analyzed)
    if (before > 0) {
      placeholders.addAndGet(before)
      val left = countPlaceholders(qe.optimizedPlan)
      unrewritten.addAndGet(left)
      val lists = tableIdLists(qe.optimizedPlan)
      if (left == 0 && lists.nonEmpty) {
        rewritten.addAndGet(lists.size)
        rewrittenIds.addAndGet(lists.sum)
      }
    }
    val plan = qe.executedPlan
    scanRows.add(collect(plan) { case s: InMemoryTableScanExec => s }
      .map(_.metrics.get("numOutputRows").map(_.value).getOrElse(0L)).sum.toDouble)
    rowsCollected.add(outRows(plan).toDouble)
  }

  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = {
    queries.incrementAndGet(); ()
  }
}

/** Attaches the traced-round listeners to a session and detaches them. */
final class Tracer(spark: SparkSession) {
  val engine = new SparkTrace
  val catalyst = new QueryTrace

  def drain(): Unit = BenchBus.drain(spark.sparkContext)

  def attach(): Unit = {
    drain()
    spark.sparkContext.addSparkListener(engine)
    spark.listenerManager.register(catalyst)
  }

  def detach(): Unit = {
    drain()
    spark.sparkContext.removeSparkListener(engine)
    spark.listenerManager.unregister(catalyst)
  }
}

/** Host counters: CPU time stolen by the hypervisor (from /proc/stat) and
  * this process's CPU time. They tell machine drift from a regression.
  */
final case class HostSample(stealTicks: Long, totalTicks: Long, processCpuNs: Long) {
  def stealPctSince(start: HostSample): Double = {
    val total = totalTicks - start.totalTicks
    if (total <= 0) 0.0 else 100.0 * (stealTicks - start.stealTicks) / total
  }
  def cpuMsSince(start: HostSample): Double = (processCpuNs - start.processCpuNs) / 1e6
}

object HostSample {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def now(): HostSample = {
    // cpu  user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already part of user time.
    val line = Files.readAllLines(Paths.get("/proc/stat")).get(0)
    val ticks = line.trim.split("\\s+").drop(1).take(8).map(_.toLong)
    HostSample(ticks(7), ticks.sum, os.getProcessCpuTime)
  }
}
