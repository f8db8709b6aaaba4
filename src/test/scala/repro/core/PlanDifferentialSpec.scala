package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.{Fixtures, SparkSpec}
import repro.lake.LakeGen.Entity

/** Differential check of Theorem 1 on generated plans: every plan DAG runs
  * under BLEND (ordering + IR rewriting), under B-NO, and through a naive
  * driver-side evaluator, and all three must agree on every combiner and
  * every plan output.
  *
  * The plans come from a ScalaCheck generator with a fixed seed, over
  * `Fixtures.mixedIndex`: seekers of every type over small entity windows
  * (some over values absent from the lake, so their results are empty),
  * node names with quotes, and combiners whose inputs may be earlier
  * combiners or nodes other combiners also consume.
  */
class PlanDifferentialSpec extends SparkSpec {

  private lazy val idx = Fixtures.mixedIndex
  private lazy val blend = new Executor(spark, idx, CostModel.untrained, optimize = true)
  private lazy val bno = new Executor(spark, idx, CostModel.untrained, optimize = false)

  private val universe = Fixtures.mixed.universe
  private val ks = Gen.oneOf(-1, 1, 3)

  private val entities: Gen[Vector[Entity]] = for {
    n    <- Gen.choose(3, 12)
    from <- Gen.choose(0, universe.size - n)
  } yield universe.slice(from, from + n)

  private def seekerNode(i: Int): Gen[SeekerNode] = for {
    name   <- Gen.oneOf(s"s$i", s"o's$i")
    es     <- entities
    k      <- ks
    absent <- Gen.oneOf(false, false, false, true)
    kind   <- Gen.choose(0, 3)
  } yield {
    def v(s: String) = if (absent) s"absent-$s" else s
    val seeker = kind match {
      case 0 => ScSeeker(name, es.map(e => v(e.person)), k)
      case 1 => KwSeeker(name, es.map(e => v(e.city)), k)
      case 2 => McSeeker(name, es.map(_.pair.map(v)), k)
      case _ => CorrSeeker(name, es.map(e => v(e.person)), es.map(_.score), k = k)
    }
    SeekerNode(name, seeker)
  }

  private def combinerNode(names: Vector[String], i: Int): Gen[CombinerNode] = for {
    combiner <- Gen.oneOf(Combiner.Intersection, Combiner.Union, Combiner.Difference, Combiner.Counter)
    n        <- if (combiner == Combiner.Difference) Gen.const(2) else Gen.choose(2, math.min(3, names.size))
    // Favour recent nodes, so combiners nest.
    inputs   <- Gen.pick(n, names.takeRight(4))
    k        <- ks
  } yield CombinerNode(s"c$i", combiner, inputs.toVector, k)

  private def nodes(acc: Vector[PlanNode], left: Int): Gen[Vector[PlanNode]] =
    if (left == 0) Gen.const(acc)
    else {
      val next =
        if (acc.size < 2) seekerNode(acc.size)
        else Gen.frequency(2 -> seekerNode(acc.size), 3 -> combinerNode(acc.map(_.name), acc.size))
      next.flatMap(node => nodes(acc :+ node, left - 1))
    }

  private val genPlan: Gen[Vector[PlanNode]] = Gen.choose(3, 7).flatMap(nodes(Vector.empty, _))

  private lazy val plans: Seq[Plan] =
    Gen.listOfN(25, genPlan).pureApply(Gen.Parameters.default, Seed(20261020L)).map { ns =>
      val p = new Plan
      ns.foreach {
        case SeekerNode(name, s)            => p.add(name, s)
        case CombinerNode(name, c, ins, k)  => p.add(name, c, ins, k)
      }
      p
    }

  /** Every node of `p`, evaluated on the driver from unrestricted seeker
    * runs, truncated as [[Executor]] documents: a seeker whose only
    * consumer is an Intersection or a Difference keeps its full ranking,
    * any other seeker keeps its top k, and a combiner keeps its top k.
    */
  private def naive(p: Plan): Map[String, Seq[Scored]] = {
    val consumedBy: Map[String, Seq[Combiner]] =
      p.combiners.flatMap(c => c.inputs.map(_ -> c.combiner)).groupMap(_._1)(_._2)
    def top(xs: Seq[Scored], k: Int) = if (k > 0) xs.take(k) else xs
    p.nodes.foldLeft(Map.empty[String, Seq[Scored]]) {
      case (acc, SeekerNode(name, s)) =>
        val full = consumedBy.get(name) match {
          case Some(Seq(Combiner.Intersection | Combiner.Difference)) => true
          case _                                                       => false
        }
        val ranking = s.run(idx)
        acc + (name -> (if (full) ranking else top(ranking, s.k)))
      case (acc, c: CombinerNode) =>
        acc + (c.name -> top(c.combiner(c.inputs.map(acc)), c.k))
    }
  }

  private def describe(p: Plan): String = p.nodes.map {
    case SeekerNode(name, s)            => s"$name=${s.seekerType.name}(k=${s.k}, ${s.queryValues.take(2).mkString(",")}...)"
    case CombinerNode(name, c, ins, k)  => s"$name=${c.name}(${ins.mkString(",")}; k=$k)"
  }.mkString("; ")

  test("generated plans cover nesting, sharing, Difference over a combiner, empty results, every k, quotes") {
    val combiners = plans.flatMap(_.combiners)
    def isCombiner(p: Plan, n: String) = p.node(n).isInstanceOf[CombinerNode]
    assert(plans.exists(p => p.combiners.exists(_.inputs.exists(isCombiner(p, _)))), "nested")
    assert(plans.exists(p => p.combiners.exists(c => p.consumers.get(c.name).exists(_.size > 1))), "shared combiner")
    assert(plans.exists(p => p.seekers.exists(s => p.consumers.get(s.name).exists(_.size > 1))), "shared seeker")
    assert(plans.exists(p => p.combiners.exists(c =>
      c.combiner == Combiner.Difference && c.inputs.exists(isCombiner(p, _)))), "Difference over a combiner")
    assert(plans.exists(_.seekers.exists(_.seeker.queryValues.exists(_.startsWith("absent-")))), "empty results")
    val seekerKs = plans.flatMap(_.seekers.map(_.seeker.k)).toSet
    assert(seekerKs == Set(-1, 1, 3) && combiners.map(_.k).toSet == Set(-1, 1, 3), "every k")
    assert(plans.exists(_.nodes.exists(_.name.contains("'"))), "quoted names")
    assert(Seq(Combiner.Intersection, Combiner.Union, Combiner.Difference, Combiner.Counter)
      .forall(c => combiners.exists(_.combiner == c)), "every combiner")
  }

  test("Theorem 1 on generated plans: BLEND == B-NO == the driver-side evaluator") {
    for (p <- plans) {
      val (a, b, expected) = (blend.execute(p), bno.execute(p), naive(p))
      for (n <- (p.combiners.map(_.name) ++ p.sinks).distinct) {
        assert(a(n) == expected(n), s"BLEND differs on $n in plan ${describe(p)}")
        assert(b(n) == expected(n), s"B-NO differs on $n in plan ${describe(p)}")
      }
    }
  }
}
