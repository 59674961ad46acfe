/**
 * Campaign engine unit tests: lockstep divergence detection via the
 * injected self-test bug, bucketing by first-divergence signature,
 * ddmin shrinking to a minimal reproducer, and the worker-count
 * invariance guarantee (results are a pure function of the seed range).
 */

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign/lockstep.h"
#include "campaign/shrink.h"
#include "workload/shrinkable.h"

namespace {

using namespace minjie;
using namespace minjie::campaign;
namespace wl = minjie::workload;

CampaignConfig
buggyConfig(uint64_t seeds, unsigned workers)
{
    CampaignConfig cfg;
    cfg.seedBase = 1;
    cfg.seedCount = seeds;
    cfg.workers = workers;
    cfg.nInsts = 200;
    cfg.bug.enabled = true;
    cfg.bug.op = isa::Op::Xor;
    cfg.bug.xorMask = 1;
    cfg.shrinkFailures = false;
    return cfg;
}

TEST(Lockstep, CleanPairsAgreeAndExit)
{
    for (uint64_t seed = 50; seed < 56; ++seed) {
        Rng rng(seed);
        wl::RandomSpec spec;
        spec.nInsts = 200;
        auto prog = wl::randomShrinkable(rng, spec).assemble();
        auto r = runLockstep(Engine::Spike, Engine::Tci, prog, 100'000);
        EXPECT_FALSE(r.div.diverged()) << "seed " << seed << ": "
                                       << r.div.describe();
        EXPECT_TRUE(r.exited) << "seed " << seed;
    }
}

TEST(Lockstep, InjectedBugIsCaughtAtFirstDivergence)
{
    BugInject bug;
    bug.enabled = true;
    bug.op = isa::Op::Xor;
    bug.xorMask = 1;

    bool caught = false;
    for (uint64_t seed = 1; seed < 30 && !caught; ++seed) {
        Rng rng(seed);
        wl::RandomSpec spec;
        spec.nInsts = 200;
        auto prog = wl::randomShrinkable(rng, spec).assemble();
        auto r = runLockstep(Engine::Spike, Engine::Dromajo, prog,
                             100'000, &bug);
        if (!r.div.diverged())
            continue;
        caught = true;
        EXPECT_EQ(r.div.signature(), "xreg:alu:xor");
        EXPECT_EQ(r.div.op, isa::Op::Xor);
        // One side was XORed with 1, so the values differ in bit 0.
        EXPECT_EQ(r.div.valA ^ r.div.valB, 1u);
    }
    EXPECT_TRUE(caught) << "no program in the seed range used xor";
}

TEST(Campaign, BucketingGroupsIdenticalDivergences)
{
    CampaignConfig cfg = buggyConfig(40, 2);
    CampaignReport rep = runCampaign(cfg);
    ASSERT_GT(rep.failures, 5u);
    // Every failure is the same logical bug -> exactly one bucket.
    ASSERT_EQ(rep.buckets.size(), 1u);
    const Bucket &b = rep.buckets.front();
    EXPECT_EQ(b.signature, "xreg:alu:xor");
    EXPECT_EQ(b.seeds.size(), rep.failures);
    // Seed list is in ascending seed order (results indexed by seed).
    for (size_t i = 1; i < b.seeds.size(); ++i)
        EXPECT_LT(b.seeds[i - 1], b.seeds[i]);
}

TEST(Campaign, ShrinkerConvergesOnInjectedBug)
{
    CampaignConfig cfg = buggyConfig(20, 2);
    cfg.shrinkFailures = true;
    CampaignReport rep = runCampaign(cfg);
    ASSERT_EQ(rep.buckets.size(), 1u);
    const Bucket &b = rep.buckets.front();
    ASSERT_GE(b.shrunkInsts, 1u);
    EXPECT_LE(b.shrunkInsts, 8u)
        << "shrinker left " << b.shrunkInsts << " instructions";

    // The minimized program must still reproduce the exact signature.
    JobPlan plan = planJob(cfg, b.repSeed);
    Rng rng(b.repSeed);
    wl::ShrinkableProgram sp = wl::randomShrinkable(rng, plan.spec);
    SignatureFn sig = [&cfg, &plan](const wl::Program &p) {
        auto r = runLockstep(plan.a, plan.b, p, cfg.maxSteps, &cfg.bug);
        return r.div.diverged() ? r.div.signature() : std::string();
    };
    ShrinkResult sr = shrinkProgram(sp, b.signature, sig);
    EXPECT_EQ(sig(sr.program.assemble()), b.signature);
    EXPECT_EQ(sr.program.bodyInsts(), b.shrunkInsts);
}

TEST(Campaign, ResultsAreInvariantUnderWorkerCount)
{
    // Each worker reuses one rig, so the jobs a rig runs (and their
    // order) change with the worker count; the results must not.
    auto config = [](unsigned workers) {
        CampaignConfig cfg = buggyConfig(120, workers);
        cfg.difftestPct = 20;
        cfg.perf = true;
        return cfg;
    };
    CampaignReport a = runCampaign(config(1));
    ASSERT_GT(a.failures, 10u);
    std::string perfTotal = a.perfCounters().toJson();
    ASSERT_NE(a.perfCounters().get("dut.jobs"), 0u);
    for (unsigned workers : {2u, 3u, 8u}) {
        SCOPED_TRACE(workers);
        CampaignReport b = runCampaign(config(workers));
        ASSERT_EQ(a.failures, b.failures);
        ASSERT_EQ(a.buckets.size(), b.buckets.size());
        for (size_t i = 0; i < a.buckets.size(); ++i) {
            EXPECT_EQ(a.buckets[i].signature, b.buckets[i].signature);
            EXPECT_EQ(a.buckets[i].repSeed, b.buckets[i].repSeed);
            EXPECT_EQ(a.buckets[i].seeds, b.buckets[i].seeds);
        }
        ASSERT_EQ(a.results.size(), b.results.size());
        for (size_t i = 0; i < a.results.size(); ++i) {
            const JobResult &x = a.results[i], &y = b.results[i];
            EXPECT_EQ(x.seed, y.seed);
            EXPECT_EQ(x.kind, y.kind);
            EXPECT_EQ(x.steps, y.steps);
            EXPECT_EQ(x.failed, y.failed);
            EXPECT_EQ(x.signature, y.signature);
            EXPECT_EQ(x.detail, y.detail);
            EXPECT_EQ(x.perf.cycles, y.perf.cycles);
            EXPECT_EQ(x.perf.instrs, y.perf.instrs);
        }
        EXPECT_EQ(perfTotal, b.perfCounters().toJson());
    }
}

TEST(Campaign, CleanCampaignFindsNoFailures)
{
    CampaignConfig cfg;
    cfg.seedBase = 1;
    cfg.seedCount = 30;
    cfg.workers = 2;
    cfg.nInsts = 150;
    CampaignReport rep = runCampaign(cfg);
    EXPECT_EQ(rep.failures, 0u);
    EXPECT_TRUE(rep.buckets.empty());
    EXPECT_EQ(rep.jobs, 30u);
}

TEST(Campaign, PlanningIsDeterministicPerSeed)
{
    CampaignConfig cfg;
    cfg.fpPct = 50;
    cfg.rvcPct = 50;
    for (uint64_t seed = 1; seed < 50; ++seed) {
        JobPlan p1 = planJob(cfg, seed);
        JobPlan p2 = planJob(cfg, seed);
        EXPECT_EQ(p1.a, p2.a);
        EXPECT_EQ(p1.b, p2.b);
        EXPECT_EQ(p1.difftest, p2.difftest);
        EXPECT_EQ(p1.spec.withFp, p2.spec.withFp);
        EXPECT_EQ(p1.spec.withRvc, p2.spec.withRvc);
    }
}

TEST(Campaign, FpJobsNeverLandOnNemu)
{
    CampaignConfig cfg;
    cfg.fpPct = 100;
    for (uint64_t seed = 1; seed < 200; ++seed) {
        JobPlan p = planJob(cfg, seed);
        EXPECT_TRUE(p.spec.withFp);
        EXPECT_NE(p.a, Engine::Nemu);
        EXPECT_NE(p.b, Engine::Nemu);
    }
}

TEST(Campaign, JsonReportCarriesBucketTable)
{
    CampaignConfig cfg = buggyConfig(20, 2);
    CampaignReport rep = runCampaign(cfg);
    std::string js = rep.toJson();
    EXPECT_NE(js.find("\"jobs\":20"), std::string::npos);
    EXPECT_NE(js.find("\"buckets\""), std::string::npos);
    EXPECT_NE(js.find("xreg:alu:xor"), std::string::npos);
    EXPECT_NE(js.find("\"workers\""), std::string::npos);
    EXPECT_NE(js.find("\"failing_jobs\""), std::string::npos);
}

} // namespace
