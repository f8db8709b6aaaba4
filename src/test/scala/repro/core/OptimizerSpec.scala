package repro.core

import repro.{Fixtures, SparkSpec}

class OptimizerSpec extends SparkSpec {

  private def sc(name: String, vs: Seq[String] = Seq("HR")) = SeekerNode(name, ScSeeker(name, vs))
  private def kw(name: String) = SeekerNode(name, KwSeeker(name, Seq("HR")))
  private def mc(name: String) = SeekerNode(name, McSeeker(name, Seq(Vector("HR", "Firenze"))))
  private def c(name: String) = SeekerNode(name, CorrSeeker(name, Seq("a", "b"), Seq(1.0, 2.0)))

  test("rule ranking: KW first, then SC, then C, MC last") {
    val ordered = Optimizer.orderSeekers(
      Seq(mc("m"), c("c"), sc("s"), kw("k")), Fixtures.fig1Index, CostModel.untrained)
    assert(ordered.map(_.name) == Seq("k", "s", "c", "m"))
  }

  test("rule ranking is stable for equal types with untrained model") {
    val ordered = Optimizer.orderSeekers(
      Seq(sc("s1"), sc("s2"), sc("s3")), Fixtures.fig1Index, CostModel.untrained)
    assert(ordered.map(_.name) == Seq("s1", "s2", "s3"))
  }

  test("cost model breaks ties within a type") {
    // Weight on log1p(card): bigger queries predicted slower.
    val model = new CostModel(Map(SeekerType.SC -> Array(0.0, 1.0, 0.0, 0.0)))
    val big = sc("big", (1 to 50).map(i => s"v$i"))
    val small = sc("small", Seq("v1"))
    val ordered = Optimizer.orderSeekers(Seq(big, small), Fixtures.fig1Index, model)
    assert(ordered.map(_.name) == Seq("small", "big"))
  }

  test("rules dominate the cost model across types") {
    // Even if the model claims KW is expensive, Rule 1 keeps it first.
    val model = new CostModel(Map(
      SeekerType.KW -> Array(1e9, 0.0, 0.0, 0.0),
      SeekerType.MC -> Array(0.0, 0.0, 0.0, 0.0)))
    val ordered = Optimizer.orderSeekers(Seq(mc("m"), kw("k")), Fixtures.fig1Index, model)
    assert(ordered.map(_.name) == Seq("k", "m"))
  }

  test("execution groups: seekers exclusively feeding an Intersection") {
    val p = new Plan
    p.add("s1", ScSeeker("s1", Seq("a")))
    p.add("s2", ScSeeker("s2", Seq("b")))
    p.add("i", Combiner.Intersection, Seq("s1", "s2"))
    val groups = Optimizer.executionGroups(p)
    assert(groups("i").map(_.name) == Vector("s1", "s2"))
  }

  test("shared seekers are excluded from execution groups") {
    val p = new Plan
    p.add("s1", ScSeeker("s1", Seq("a")))
    p.add("s2", ScSeeker("s2", Seq("b")))
    p.add("i", Combiner.Intersection, Seq("s1", "s2"))
    p.add("u", Combiner.Union, Seq("s1", "i"))
    val groups = Optimizer.executionGroups(p)
    assert(groups("i").map(_.name) == Vector("s2")) // s1 also feeds the union
  }

  test("non-Intersection combiners build no execution groups") {
    val p = new Plan
    p.add("s1", ScSeeker("s1", Seq("a")))
    p.add("s2", ScSeeker("s2", Seq("b")))
    p.add("d", Combiner.Difference, Seq("s1", "s2"))
    assert(Optimizer.executionGroups(p).isEmpty)
  }

  test("a seeker feeding only a Difference is deferred but forms no reorderable group") {
    val p = new Plan
    p.add("pos", ScSeeker("pos", Seq("HR", "Marketing", "Finance"), k = 1))
    p.add("neg", ScSeeker("neg", Seq("Tom Riddle"), k = 1))
    p.add("d", Combiner.Difference, Seq("pos", "neg"))
    p.add("u", Combiner.Union, Seq("d", "neg"))
    assert(Optimizer.executionGroups(p).keySet == Set.empty)
    assert(p.exclusiveSeekers(p.combiners.head).map(_.name) == Vector("pos")) // neg also feeds the union
    // Deferred: pos keeps its full ranking past its k (under BLEND, the
    // ranking rewritten with NOT IN neg's tables), while the shared neg is
    // capped like any standalone seeker.
    for (optimize <- Seq(true, false)) {
      val r = new Executor(spark, Fixtures.fig1Index, optimize = optimize).execute(p)
      assert(r.tableIds("pos").toSet == (if (optimize) Set(0L, 2L) else Set(0L, 1L, 2L)))
      assert(r.tableIds("d").toSet == Set(0L, 2L))
      assert(r("neg").size == 1)
    }
  }

  test("combiner inputs of an Intersection are not group members") {
    val p = new Plan
    p.add("s1", ScSeeker("s1", Seq("a")))
    p.add("s2", ScSeeker("s2", Seq("b")))
    p.add("s3", ScSeeker("s3", Seq("c")))
    p.add("u", Combiner.Union, Seq("s1", "s2"))
    p.add("i", Combiner.Intersection, Seq("u", "s3"))
    assert(Optimizer.executionGroups(p)("i").map(_.name) == Vector("s3"))
  }
}
