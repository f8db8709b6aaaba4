package repro.core

import java.util.concurrent.{Callable, CyclicBarrier, Executors}

import org.apache.spark.sql.catalyst.FunctionIdentifier
import org.apache.spark.sql.functions.{array, call_function, col, lit}

import repro.{Fixtures, SparkSpec}

/** Catalyst-level behaviour of the intermediate-result rewriting. */
class IrRewriteSpec extends SparkSpec {

  BlendSession.install(Fixtures.spark)

  private val depts = Seq("HR", "Marketing", "Finance", "IT", "R&D", "Sales")
  private def seeker = ScSeeker("sc", depts)
  private def runWith(ir: Ir): Seq[Scored] = seeker.run(Fixtures.fig1Index, Some(ir))

  test("no IR leaves results unrestricted") {
    val idx = Fixtures.fig1Index
    assert(!seeker.resultDF(idx).queryExecution.analyzed.toString.contains("blend_ir"))
    // A placeholder whose ids the rule cannot read stays in the plan and
    // evaluates to TRUE.
    val unread = idx.df.where(call_function("blend_ir", array(col("TableId")), lit(false), col("TableId")))
    assert(unread.queryExecution.optimizedPlan.toString.contains("blend_ir"))
    assert(unread.count() == idx.df.count())
  }

  test("intersection IR restricts the scan to the listed tables") {
    assert(runWith(Ir(Seq(1L), negate = false)).map(_.tableId) == Seq(1L))
  }

  test("difference IR excludes the listed tables") {
    assert(runWith(Ir(Seq(1L), negate = true)).map(_.tableId).toSet == Set(0L, 2L))
  }

  test("empty intersection IR yields an empty result") {
    assert(runWith(Ir(Seq.empty, negate = false)).isEmpty)
  }

  test("empty difference IR leaves the scan unrestricted") {
    assert(runWith(Ir(Seq.empty, negate = true)) == seeker.run(Fixtures.fig1Index))
  }

  test("the placeholder survives analysis and is removed by optimization") {
    val df = seeker.resultDF(Fixtures.fig1Index, Some(Ir(Seq(0L, 2L), negate = false)))
    val analyzed = df.queryExecution.analyzed.toString
    val optimized = df.queryExecution.optimizedPlan.toString
    assert(analyzed.contains("blend_ir"), "placeholder must appear in the analyzed plan")
    assert(!optimized.contains("blend_ir"), "rule must rewrite the placeholder away")
    assert(optimized.contains(" IN ") || optimized.contains("INSET"),
      s"optimized plan should contain the IN-list, got:\n$optimized")
  }

  test("large id lists are rewritten to InSet") {
    val threshold = spark.sessionState.conf.optimizerInSetConversionThreshold
    for (n <- Seq(threshold, threshold + 1, 50)) {
      val ir = Some(Ir((0L until n.toLong), negate = false))
      val optimized = seeker.resultDF(Fixtures.fig1Index, ir).queryExecution.optimizedPlan.toString
      assert(optimized.contains("INSET") == (n > threshold), s"$n ids:\n$optimized")
      // All three fig1 tables are within [0, n).
      assert(seeker.run(Fixtures.fig1Index, ir) == seeker.run(Fixtures.fig1Index))
    }
  }

  test("the IR travels with its query: concurrent queries keep their own restriction") {
    val restrictions = Seq(Seq(0L), Seq(1L, 2L))
    val dfs = restrictions.map(ids => seeker.resultDF(Fixtures.fig1Index, Some(Ir(ids, negate = false))))
    val pool = Executors.newFixedThreadPool(2)
    val bothReady = new CyclicBarrier(2)
    try {
      val collected = dfs.map { df =>
        pool.submit(new Callable[Set[Long]] {
          override def call(): Set[Long] = {
            bothReady.await()
            df.select(col("TableId")).collect().map(_.getLong(0)).toSet
          }
        })
      }
      assert(collected.map(_.get()) == restrictions.map(_.toSet))
    } finally pool.shutdown()
  }

  test("install is idempotent (rule injected once)") {
    val functions = Fixtures.spark.sessionState.functionRegistry
    val blendIr = FunctionIdentifier("blend_ir")
    // Each registration stores a new ExpressionInfo beside the builder; the
    // builder alone cannot show one, as a non-capturing lambda is one object.
    val registered = functions.lookupFunction(blendIr)
    BlendSession.install(Fixtures.spark)
    BlendSession.install(Fixtures.spark)
    assert(registered.isDefined)
    assert(functions.lookupFunction(blendIr).exists(_ eq registered.get), "blend_ir must be registered once")
    val rules = Fixtures.spark.experimental.extraOptimizations
    assert(rules.count(_ == IrPushdownRule) == 1)
    assert(rules.count(_ == InSetPruningTwin) == 1)
  }

  test("MC seeker candidates honor the IR restriction") {
    val got = McSeeker("mc", Seq(Vector("HR", "Firenze"))).run(Fixtures.fig1Index, Some(Ir(Seq(2L), negate = false)))
    assert(got.map(_.tableId) == Seq(2L))
  }
}
