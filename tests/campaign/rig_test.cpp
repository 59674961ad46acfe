/**
 * Worker-owned job rigs: a campaign worker runs every job on one
 * JobRig whose engines, SoC and DiffTest are reset per job instead of
 * constructed. A job's result must not depend on what the rig ran
 * before, so a rig reused across hundreds of seeds must reproduce a
 * fresh rig per job exactly — kind, steps, verdict, signature, detail
 * and the DUT perf summary — including after failing jobs of every
 * kind (injected lockstep bug, timeout, DiffTest mismatch).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "campaign/campaign.h"
#include "xiangshan/soc.h"

namespace {

using namespace minjie;
using namespace minjie::campaign;

void
expectSameResult(const JobResult &a, const JobResult &b)
{
    SCOPED_TRACE(a.seed);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.signature, b.signature);
    EXPECT_EQ(a.detail, b.detail);
    const PerfSummary &p = a.perf, &q = b.perf;
    EXPECT_EQ(p.valid, q.valid);
    EXPECT_EQ(p.cycles, q.cycles);
    EXPECT_EQ(p.instrs, q.instrs);
    EXPECT_EQ(p.branches, q.branches);
    EXPECT_EQ(p.branchMispredicts, q.branchMispredicts);
    EXPECT_EQ(p.tdRetiring, q.tdRetiring);
    EXPECT_EQ(p.tdFrontend, q.tdFrontend);
    EXPECT_EQ(p.tdBadSpec, q.tdBadSpec);
    EXPECT_EQ(p.tdBackendMem, q.tdBackendMem);
    EXPECT_EQ(p.tdBackendCore, q.tdBackendCore);
}

CampaignConfig
rigConfig()
{
    CampaignConfig cfg;
    cfg.seedBase = 5000;
    cfg.nInsts = 200;
    cfg.difftestPct = 20;
    cfg.perf = true;
    return cfg;
}

/** Every job kind, clean and with an injected lockstep bug: one reused
 *  rig against a fresh rig per job. */
TEST(JobRig, ReusedRigMatchesFreshRigPerJob)
{
    CampaignConfig clean = rigConfig();
    CampaignConfig buggy = rigConfig();
    buggy.bug.enabled = true;
    buggy.bug.op = isa::Op::Add;
    buggy.bug.xorMask = 0x80000000;
    for (const CampaignConfig *cfg : {&clean, &buggy}) {
        JobRig rig(*cfg);
        unsigned difftest = 0, failed = 0;
        for (uint64_t s = cfg->seedBase; s < cfg->seedBase + 220; ++s) {
            JobResult reused = rig.run(s);
            expectSameResult(reused, runJob(*cfg, s));
            difftest += reused.kind == "difftest";
            failed += reused.failed;
        }
        EXPECT_GT(difftest, 20u);
        if (cfg == &buggy)
            EXPECT_GT(failed, 50u);
        else
            EXPECT_EQ(failed, 0u);
    }
}

/** First seed from @p from whose job (on a fresh rig) satisfies
 *  @p want. */
template <typename Pred>
uint64_t
findSeed(const CampaignConfig &cfg, uint64_t from, Pred want)
{
    for (uint64_t s = from; s < from + 500; ++s)
        if (want(planJob(cfg, s), runJob(cfg, s)))
            return s;
    ADD_FAILURE() << "no seed found";
    return from;
}

TEST(JobRig, CleanJobFollowsInjectedBugOnTheSamePair)
{
    CampaignConfig cfg = rigConfig();
    cfg.difftestPct = 0;
    cfg.pairs = {{Engine::Nemu, Engine::Tci}};
    cfg.bug.enabled = true;
    uint64_t bad = findSeed(cfg, cfg.seedBase,
                            [](const JobPlan &, const JobResult &r) {
                                return r.failed;
                            });
    uint64_t good = findSeed(cfg, cfg.seedBase,
                             [](const JobPlan &, const JobResult &r) {
                                 return !r.failed;
                             });
    JobRig rig(cfg);
    JobResult first = rig.run(bad);
    ASSERT_TRUE(first.failed);
    expectSameResult(first, runJob(cfg, bad));
    JobResult next = rig.run(good);
    EXPECT_FALSE(next.failed) << next.detail;
    expectSameResult(next, runJob(cfg, good));
}

TEST(JobRig, CleanJobFollowsTimeoutOnTheSamePair)
{
    // A budget between the shortest and the longest job of the seed
    // range: some jobs time out mid-program, others exit.
    CampaignConfig cfg = rigConfig();
    cfg.difftestPct = 0;
    cfg.pairs = {{Engine::Spike, Engine::Spike}};
    std::vector<uint64_t> steps;
    for (uint64_t s = cfg.seedBase; s < cfg.seedBase + 40; ++s)
        steps.push_back(runJob(cfg, s).steps);
    std::sort(steps.begin(), steps.end());
    ASSERT_LT(steps.front(), steps.back());
    cfg.maxSteps = steps[steps.size() / 2];

    uint64_t timeout = findSeed(cfg, cfg.seedBase,
                                [](const JobPlan &, const JobResult &r) {
                                    return r.signature == "timeout";
                                });
    uint64_t good = findSeed(cfg, cfg.seedBase,
                             [](const JobPlan &, const JobResult &r) {
                                 return !r.failed;
                             });
    JobRig rig(cfg);
    JobResult first = rig.run(timeout);
    ASSERT_EQ(first.signature, "timeout");
    expectSameResult(first, runJob(cfg, timeout));
    JobResult next = rig.run(good);
    EXPECT_FALSE(next.failed) << next.detail;
    expectSameResult(next, runJob(cfg, good));
}

TEST(JobRig, CleanDiffTestJobFollowsDutFault)
{
    CampaignConfig cfg = rigConfig();
    cfg.difftestPct = 100;
    bool inject = true;
    auto hook = [&inject](xs::Soc &soc) {
        if (inject)
            soc.core(0).injectCommitFault(0x10);
    };

    JobRig rig(cfg), fresh(cfg);
    rig.setDutHook(hook);
    fresh.setDutHook(hook);
    JobResult bad = rig.run(cfg.seedBase);
    ASSERT_TRUE(bad.failed);
    EXPECT_EQ(bad.signature.rfind("rd:", 0), 0u) << bad.signature;
    expectSameResult(bad, fresh.run(cfg.seedBase));

    // The same DUT, reset without an injection, checks clean again.
    // Jobs cut short by a tiny cycle budget leave the DUT mid-program;
    // the next job on that rig still matches a fresh one.
    inject = false;
    for (uint64_t s = cfg.seedBase; s < cfg.seedBase + 3; ++s) {
        JobResult next = rig.run(s);
        EXPECT_FALSE(next.failed) << next.detail;
        expectSameResult(next, runJob(cfg, s));
    }
    CampaignConfig shortRun = cfg;
    shortRun.difftestMaxCycles = 200;
    JobRig cut(shortRun);
    JobResult partial = cut.run(cfg.seedBase + 3);
    expectSameResult(partial, runJob(shortRun, cfg.seedBase + 3));
    expectSameResult(cut.run(cfg.seedBase + 4),
                     runJob(shortRun, cfg.seedBase + 4));
}

} // namespace
