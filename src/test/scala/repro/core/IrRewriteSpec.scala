package repro.core

import repro.{Fixtures, SparkSpec}

/** Catalyst-level behaviour of the intermediate-result rewriting. */
class IrRewriteSpec extends SparkSpec {

  BlendSession.install(Fixtures.spark)

  private val depts = Seq("HR", "Marketing", "Finance", "IT", "R&D", "Sales")
  private def seeker = ScSeeker("sc", depts)

  test("unregistered slot leaves results unrestricted") {
    val base = seeker.run(Fixtures.fig1Index)
    val withSlot = seeker.run(Fixtures.fig1Index, Some("never-registered-slot"))
    assert(base == withSlot)
  }

  test("intersection IR restricts the scan to the listed tables") {
    val slot = IrRegistry.freshSlot("test-in")
    IrRegistry.put(slot, Ir(Seq(1L), negate = false))
    try {
      val got = seeker.run(Fixtures.fig1Index, Some(slot))
      assert(got.map(_.tableId) == Seq(1L))
    } finally IrRegistry.remove(slot)
  }

  test("difference IR excludes the listed tables") {
    val slot = IrRegistry.freshSlot("test-notin")
    IrRegistry.put(slot, Ir(Seq(1L), negate = true))
    try {
      val got = seeker.run(Fixtures.fig1Index, Some(slot))
      assert(got.map(_.tableId).toSet == Set(0L, 2L))
    } finally IrRegistry.remove(slot)
  }

  test("empty intersection IR yields an empty result") {
    val slot = IrRegistry.freshSlot("test-empty-in")
    IrRegistry.put(slot, Ir(Seq.empty, negate = false))
    try {
      assert(seeker.run(Fixtures.fig1Index, Some(slot)).isEmpty)
    } finally IrRegistry.remove(slot)
  }

  test("empty difference IR leaves the scan unrestricted") {
    val slot = IrRegistry.freshSlot("test-empty-notin")
    IrRegistry.put(slot, Ir(Seq.empty, negate = true))
    try {
      assert(seeker.run(Fixtures.fig1Index, Some(slot)) == seeker.run(Fixtures.fig1Index))
    } finally IrRegistry.remove(slot)
  }

  test("the placeholder survives analysis and is removed by optimization") {
    val slot = IrRegistry.freshSlot("test-plan-shape")
    IrRegistry.put(slot, Ir(Seq(0L, 2L), negate = false))
    try {
      val df = seeker.resultDF(Fixtures.fig1Index, Some(slot))
      val analyzed = df.queryExecution.analyzed.toString
      val optimized = df.queryExecution.optimizedPlan.toString
      assert(analyzed.contains("blend_ir"), "placeholder must appear in the analyzed plan")
      assert(!optimized.contains("blend_ir"), "rule must rewrite the placeholder away")
      assert(optimized.contains(" IN ") || optimized.contains("INSET"),
        s"optimized plan should contain the IN-list, got:\n$optimized")
    } finally IrRegistry.remove(slot)
  }

  test("large id lists are rewritten to InSet") {
    val slot = IrRegistry.freshSlot("test-inset")
    IrRegistry.put(slot, Ir((0L until 50L).toSeq, negate = false))
    try {
      val df = seeker.resultDF(Fixtures.fig1Index, Some(slot))
      assert(df.queryExecution.optimizedPlan.toString.contains("INSET"))
      // All three fig1 tables are within [0, 50).
      assert(seeker.run(Fixtures.fig1Index, Some(slot)) == seeker.run(Fixtures.fig1Index))
    } finally IrRegistry.remove(slot)
  }

  test("fresh slots are unique") {
    val a = IrRegistry.freshSlot("x")
    val b = IrRegistry.freshSlot("x")
    assert(a != b)
  }

  test("install is idempotent (rule injected once)") {
    BlendSession.install(Fixtures.spark)
    BlendSession.install(Fixtures.spark)
    val rules = Fixtures.spark.experimental.extraOptimizations
    assert(rules.count(_ == IrPushdownRule) == 1)
    assert(rules.count(_ == InSetPruningTwin) == 1)
  }

  test("MC seeker candidates honor the IR restriction") {
    val slot = IrRegistry.freshSlot("test-mc")
    IrRegistry.put(slot, Ir(Seq(2L), negate = false))
    try {
      val got = McSeeker("mc", Seq(Vector("HR", "Firenze"))).run(Fixtures.fig1Index, Some(slot))
      assert(got.map(_.tableId) == Seq(2L))
    } finally IrRegistry.remove(slot)
  }
}
