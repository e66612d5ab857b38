package repro.core.partition

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{VersionGraph, VersioningBenchmark}

class MaintenanceSpec extends AnyFunSuite {

  private lazy val g = VersioningBenchmark.sci(
    numVersions = 80, base = 800, updates = 100, inserts = 20, branches = 6, seed = 8)

  test("migration plan covers every new partition exactly once") {
    val oldS = LyreSplit.run(g, 0.2).scheme
    val newS = LyreSplit.run(g, 0.6).scheme
    val plan = Migration.plan(g, oldS, newS)
    assert(plan.assignments.map(_.newPid).sorted == (0 until newS.numPartitions).toVector)
    val reused = plan.assignments.flatMap(_.fromOldPid)
    assert(reused.distinct.length == reused.length, "an old partition was reused twice")
  }

  test("intelligent migration is never costlier than rebuilding from scratch") {
    val oldS = LyreSplit.run(g, 0.3).scheme
    val newS = LyreSplit.run(g, 0.5).scheme
    val plan = Migration.plan(g, oldS, newS)
    assert(plan.totalModifiedRecords <= Migration.naiveCost(g, newS))
  }

  test("migrating to an identical scheme costs nothing") {
    val s = LyreSplit.run(g, 0.4).scheme
    val plan = Migration.plan(g, s, s)
    assert(plan.totalModifiedRecords == 0)
  }

  test("per-assignment costs are exact record-level modification counts") {
    val oldS = PartitionScheme.single(g.numVersions)
    val newS = LyreSplit.run(g, 0.5).scheme
    val plan = Migration.plan(g, oldS, newS)
    for (a <- plan.assignments; old <- a.fromOldPid) {
      val oldR = CostModel.partitionRecords(g, oldS.versionsOf(old))
      val newR = CostModel.partitionRecords(g, newS.versionsOf(a.newPid))
      assert(a.insertRecords == newR.diff(oldR).size)
      assert(a.deleteRecords == oldR.diff(newR).size)
    }
  }

  test("online maintenance tracks LyreSplit's best cost within tolerance") {
    val gamma = 2 * g.numRecords
    val res = OnlineMaintenance.simulate(g, gamma, mu = 1.5, evalEvery = 5)
    assert(res.steps.map(_.vid) == ((4 until g.numVersions by 5) :+ (g.numVersions - 1)).distinct)
    for (s <- res.steps) {
      // Each check re-plans the prefix committed so far, from scratch.
      val prefix = VersionGraph(g.versions.take(s.vid + 1))
      val best = LyreSplit.forBudget(prefix, gamma).scheme
      assert(s.bestCost == CostModel.avgCheckoutCost(prefix, best), s"vid ${s.vid}")
      assert(s.migrated == (s.bestCost > 0 && s.currentCost / s.bestCost > 1.5), s"vid ${s.vid}")
      if (s.migrated) {
        assert(s.naiveModifiedRecords == Migration.naiveCost(prefix, best), s"vid ${s.vid}")
        assert(s.migrationModifiedRecords <= s.naiveModifiedRecords, s"vid ${s.vid}")
      } else assert(s.migrationModifiedRecords == 0 && s.naiveModifiedRecords == 0)
    }
    assert(res.numMigrations == res.steps.count(_.migrated))
    assert(res.numMigrations > 0, "the check should exercise a migration")
  }

  test("smaller µ triggers migrations at least as often") {
    val tight = OnlineMaintenance.simulate(g, 2 * g.numRecords, mu = 1.1, evalEvery = 5)
    val loose = OnlineMaintenance.simulate(g, 2 * g.numRecords, mu = 3.0, evalEvery = 5)
    assert(tight.numMigrations >= loose.numMigrations)
  }

  test("simulation assigns every version") {
    val res = OnlineMaintenance.simulate(g, 2 * g.numRecords, mu = 1.5, evalEvery = 10)
    assert(res.finalScheme.assignment.length == g.numVersions)
  }
}
