package repro.core

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

/** Outcome of executing a discovery plan.
  *
  * @param results  ranking per plan node (combiner nodes truncated to their k)
  * @param seekerMs measured wall-clock per executed seeker
  * @param totalMs  end-to-end plan runtime including optimization overhead
  */
final case class PlanResult(
    results: Map[String, Seq[Scored]],
    seekerMs: Map[String, Double],
    totalMs: Double,
) {
  def apply(name: String): Seq[Scored] = results(name)
  def tableIds(name: String): Seq[Long] = results(name).map(_.tableId)
}

/** Executes discovery plans (paper §VII-B).
  *
  * In optimized mode (`optimize = true`, "BLEND"):
  *  - seekers exclusively feeding an Intersection combiner form an
  *    execution group ([[Optimizer.executionGroups]]) and are ranked by
  *    [[Optimizer.orderSeekers]];
  *  - each executed seeker's table ids become the intermediate result that
  *    rewrites the next seeker's query via the Catalyst placeholder rule
  *    (`TableId IN (...)`, or `NOT IN` for Difference);
  *  - materialized combiner inputs seed the group's initial IR.
  *
  * With `optimize = false` ("B-NO") every seeker runs unrestricted in plan
  * order and combiners are plain set operations — by Theorem 1 both modes
  * return identical rankings, which the test suite asserts.
  *
  * In both modes a seeker keeps its full ranking when it exclusively feeds
  * an Intersection or a Difference ([[Plan.exclusiveSeekers]]); any other
  * seeker is capped at its own k, and every combiner at its k.
  */
final class Executor(
    spark: SparkSession,
    idx: AllTables,
    costModel: CostModel = CostModel.untrained,
    optimize: Boolean = true,
) {
  BlendSession.install(spark)

  def execute(plan: Plan): PlanResult = {
    val t0 = System.nanoTime()
    val results = mutable.Map.empty[String, Seq[Scored]]
    val seekerMs = mutable.Map.empty[String, Double]

    // Seekers exclusively feeding an Intersection (its execution group) or a
    // Difference run under that combiner's control, so their queries can be
    // rewritten with the IR of its other inputs, and keep their full ranking.
    val groups = Optimizer.executionGroups(plan)
    val deferred: Set[String] = (groups.values.flatten ++
      plan.combiners.filter(_.combiner == Combiner.Difference).flatMap(plan.exclusiveSeekers))
      .map(_.name).toSet

    def runSeeker(node: SeekerNode, ir: Option[Ir]): Seq[Scored] = {
      val t = System.nanoTime()
      val full = node.seeker.run(idx, if (optimize) ir else None)
      seekerMs(node.name) = (System.nanoTime() - t) / 1e6
      val k = node.seeker.k
      val res = if (k > 0 && !deferred(node.name)) full.take(k) else full
      results(node.name) = res
      res
    }

    def executeIntersection(c: CombinerNode): Vector[Seq[Scored]] = {
      val members = groups(c.name)
      // Materialized inputs (earlier combiners / shared seekers) seed the IR.
      val memberNames = members.map(_.name).toSet
      var irIds: Option[Set[Long]] = c.inputs.filterNot(memberNames)
        .map(results(_).map(_.tableId).toSet)
        .reduceOption(_ intersect _)
      val ordered = if (optimize) Optimizer.orderSeekers(members, idx, costModel) else members
      for (m <- ordered) {
        val res = runSeeker(m, irIds.map(ids => Ir(ids.toSeq.sorted, negate = false)))
        val ids = res.map(_.tableId).toSet
        irIds = Some(irIds.fold(ids)(_ intersect ids))
      }
      c.inputs.map(results(_))
    }

    def executeDifference(c: CombinerNode): Vector[Seq[Scored]] = {
      val Vector(aName, bName) = c.inputs
      def side(name: String, ir: => Option[Ir]): Seq[Scored] =
        results.getOrElse(name, runSeeker(plan.node(name).asInstanceOf[SeekerNode], ir))
      // Negative side first: its ids rewrite the positive seeker's query
      // with NOT IN (paper Example 2 / §VIII-B2).
      val bRes = side(bName, None)
      val aRes = side(aName, Some(Ir(bRes.map(_.tableId).distinct.sorted, negate = true)))
      Vector(aRes, bRes)
    }

    plan.nodes.foreach {
      case s: SeekerNode =>
        if (!deferred(s.name)) runSeeker(s, None)
      case c: CombinerNode =>
        val inputResults: Vector[Seq[Scored]] = c.combiner match {
          case Combiner.Intersection => executeIntersection(c)
          case Combiner.Difference   => executeDifference(c)
          case _                     => c.inputs.map(results(_))
        }
        val combined = c.combiner(inputResults)
        results(c.name) = if (c.k > 0) combined.take(c.k) else combined
    }

    PlanResult(results.toMap, seekerMs.toMap, (System.nanoTime() - t0) / 1e6)
  }
}
