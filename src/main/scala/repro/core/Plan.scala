package repro.core

import scala.collection.mutable

/** A node of a discovery plan DAG (paper §VII-A, Fig. 4). */
sealed trait PlanNode { def name: String }

/** A seeker invocation. */
final case class SeekerNode(name: String, seeker: Seeker) extends PlanNode

/** A combiner over earlier nodes; `k` truncates this node's output
  * (`k <= 0` keeps the full ranking).
  */
final case class CombinerNode(name: String, combiner: Combiner, inputs: Vector[String], k: Int)
    extends PlanNode

/** A user-defined discovery plan: named seekers wired into combiners.
  * Nodes must reference only previously added nodes, which keeps the graph
  * acyclic by construction — mirroring `Plan.add` of the paper's API
  * (Listing 4).
  */
final class Plan {
  private val nodeMap = mutable.LinkedHashMap.empty[String, PlanNode]

  def add(name: String, seeker: Seeker): Plan = {
    addNode(SeekerNode(name, seeker)); this
  }

  def add(name: String, combiner: Combiner, inputs: Seq[String], k: Int = -1): Plan = {
    require(inputs.nonEmpty, s"combiner $name has no inputs")
    inputs.foreach(i => require(nodeMap.contains(i), s"combiner $name references unknown node '$i'"))
    require(
      combiner != Combiner.Difference || inputs.size == 2,
      s"Difference combiner $name takes exactly 2 inputs")
    addNode(CombinerNode(name, combiner, inputs.toVector, k)); this
  }

  private def addNode(node: PlanNode): Unit = {
    require(!nodeMap.contains(node.name), s"duplicate node name '${node.name}'")
    nodeMap(node.name) = node
  }

  /** Nodes in insertion (= topological) order. */
  def nodes: Vector[PlanNode] = nodeMap.values.toVector

  def node(name: String): PlanNode = nodeMap(name)
  def contains(name: String): Boolean = nodeMap.contains(name)

  /** Names of nodes consumed by no combiner — the plan's outputs. */
  def sinks: Vector[String] = {
    val used = nodes.collect { case c: CombinerNode => c.inputs }.flatten.toSet
    nodes.map(_.name).filterNot(used)
  }

  /** Combiners consuming each node. */
  def consumers: Map[String, Vector[CombinerNode]] =
    nodes
      .collect { case c: CombinerNode => c.inputs.map(_ -> c) }
      .flatten
      .groupBy(_._1)
      .view
      .mapValues(_.map(_._2))
      .toMap

  /** The seeker inputs that exclusively feed combiner `c` (it is their only
    * consumer and takes each of them once), in input order. Such a seeker
    * runs under the control of an Intersection or a Difference (see
    * [[Executor]]), and those of an Intersection form its execution group.
    */
  def exclusiveSeekers(c: CombinerNode): Vector[SeekerNode] = {
    val consumed = consumers
    c.inputs.map(node).collect { case s: SeekerNode if consumed.get(s.name).contains(Vector(c)) => s }
  }

  def seekers: Vector[SeekerNode] = nodes.collect { case s: SeekerNode => s }
  def combiners: Vector[CombinerNode] = nodes.collect { case c: CombinerNode => c }
}
