package blendbench

import scala.util.Random

import repro.core._
import repro.lake.LakeGen
import repro.tasks.Tasks

/** The lakes and the fixed round of operations of a run, all generated from
  * the run's seed. Both workloads run the same round; they differ only in
  * whether the executor optimizes plans (BLEND) or not (B-NO).
  */
object Workload {

  /** The two lakes of the Table III workload: gittables-lite, entity
    * tables with composite (city, person) keys, and nyc-lite, tables with
    * planted correlations. Each gets an index of its own, as in Table III.
    *
    * Both are scaled down from Table III's (`repro.bench.BenchData`:
    * 3000 x 250 and 80 x 260), whose gittables-lite index alone takes over
    * a minute to build on a 4-vCPU VM, so that a run fits in a minute. The queries
    * keep Table III's sizes; at this scale the rewrite fires as often per
    * plan and removes the same share of the rows the plans' queries
    * collect as at Table III's scale (see the README).
    */
  final case class Lakes(mixed: LakeGen.MixedLake, corr: LakeGen.CorrLake)

  def lakes(seed: Long): Lakes = Lakes(
    LakeGen.mixedLake("gittables-lite", nEntities = 2000, nTables = 200, rowsPerTable = 40, seed = seed),
    LakeGen.corrLake("nyc-lite", nTables = 24, rowsPerTable = 160, keyUniverse = 240,
      nQueriesPerSplit = 20, seed = seed + 1),
  )

  /** One operation of a round. `nyc` tells which lake's index it runs on. */
  sealed trait Op { def name: String; def nyc: Boolean }

  /** A single seeker called directly on the gittables-lite index. */
  final case class SeekOp(name: String, seeker: Seeker) extends Op { def nyc = false }

  /** One of the four Table III plans, run through the executor. */
  final case class PlanOp(name: String, plan: Plan, nyc: Boolean) extends Op

  /** Seeker queries per seeker type in one round. */
  val queriesPerType = 3

  /** One round: `queriesPerType` queries of each seeker type and one
    * instance of each Table III plan, with Table III's query sizes,
    * interleaved so that slow drift of the machine touches every kind of
    * operation alike.
    */
  def round(l: Lakes, seed: Long): Vector[Op] = {
    val rnd = new Random(seed * 7919 + 17)
    val g = l.mixed
    val half = g.universe.size / 2

    // A window of consecutive entities: tables hold overlapping windows of
    // the universe, so every query value occurs in some table.
    def window(region: Int, n: Int): Vector[LakeGen.Entity] = {
      val start = region * half + rnd.nextInt(half - n)
      g.universe.slice(start, start + n)
    }
    def anyWindow(n: Int) = window(rnd.nextInt(2), n)

    val seekers = Vector.tabulate(queriesPerType) { i =>
      val sc = anyWindow(30)
      val kw = anyWindow(20)
      val mc = anyWindow(20)
      val c = anyWindow(30)
      Vector[Op](
        SeekOp(s"sc$i", ScSeeker(s"sc$i", sc.map(_.person))),
        SeekOp(s"kw$i", KwSeeker(s"kw$i", kw.take(4).map(_.person) :+ kw.head.city)),
        SeekOp(s"mc$i", McSeeker(s"mc$i", mc.map(_.pair))),
        SeekOp(s"c$i", CorrSeeker(s"c$i", c.map(_.person), c.map(_.score))),
      )
    }

    // Negative examples: 250 positives, and 300 negatives from three fifths
    // of the tables that hold positives ("outdated versions"), so the
    // NOT IN rewrite has tables to prune.
    val pos = window(0, 250)
    val posSet = pos.map(_.person).toSet
    val posTables = g.tableEntities.indices.filter(t => g.tableEntities(t).exists(e => posSet(g.universe(e).person)))
    val outdated = rnd.shuffle(posTables.toVector).take(posTables.size * 3 / 5)
    val negPool = outdated.flatMap(g.tableEntities(_)).distinct.map(g.universe).filterNot(e => posSet(e.person))
    val neg = rnd.shuffle(negPool).take(300)

    val imp = anyWindow(40)
    val mo = anyWindow(35)

    // Feature discovery: a categorical-key target, two other categorical
    // queries as features, and (key, label) tuples for joinability.
    val cat = l.corr.catQueries
    val ti = rnd.nextInt(cat.size)
    val target = cat(ti)
    val feats = Seq(7, 13).map(d => cat((ti + d) % cat.size)).map(q => (q.keys: Seq[String], q.targets: Seq[Double]))
    val joinTuples = target.keys.take(40).map(k => Vector(k, s"lbl_${k.stripPrefix("key_").toInt % 17}"))

    val plans = Vector[Op](
      PlanOp("negatives", Tasks.negativeExamplesPlan(pos.map(_.pair), neg.map(_.pair), 10), nyc = false),
      PlanOp("imputation", Tasks.imputationPlan(imp.take(5).map(_.pair), imp.drop(5).map(_.person), 10), nyc = false),
      PlanOp("features", Tasks.featureDiscoveryPlan(target.keys, target.targets, feats, joinTuples, 64, 10), nyc = true),
      PlanOp("multiobjective", Tasks.multiObjectivePlan(mo.take(5).map(_.person),
        Seq(mo.map(_.person), mo.map(_.city), mo.map(_.dept)), mo.map(_.person), mo.map(_.score), 64, 40), nyc = false),
    )

    // An equal share of the seekers before each plan:
    // sc0 kw0 mc0 negatives c0 sc1 kw1 imputation mc1 c1 sc2 features kw2 mc2 c2 multiobjective
    val all = seekers.flatten
    all.grouped(all.size / plans.size).toVector.zip(plans).flatMap { case (s, p) => s :+ p }
  }
}
