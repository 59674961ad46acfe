/**
 * Rule-family tests driven by the seeded-violation fixtures in
 * tests/analysis/fixtures/. Each fixture is loaded under a path inside
 * the family's scope and must trigger exactly the rule ids its
 * comments claim — no more, no fewer. The same fixtures under an
 * out-of-scope or exempt path must be silent, proving the scoping
 * logic and not just the matchers.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "analysis/engine.h"

namespace minjie::analysis {
namespace {

std::string
fixturePath(const std::string &name)
{
    return std::string(MINJIE_SOURCE_DIR) + "/tests/analysis/fixtures/" +
           name;
}

/** Load fixture @p name as if it lived at @p scopedRel in the repo. */
SourceFile
loadFixture(const std::string &name, const std::string &scopedRel)
{
    SourceFile f("", "");
    if (!SourceFile::load(fixturePath(name), scopedRel, f))
        ADD_FAILURE() << "cannot load fixture " << name;
    return f;
}

/** ruleId -> count over the findings. */
std::map<std::string, int>
idCounts(const EngineResult &res)
{
    std::map<std::string, int> m;
    for (const Finding &f : res.findings)
        ++m[f.ruleId];
    return m;
}

Engine
plainEngine()
{
    return Engine(EngineConfig{});
}

TEST(Rules, DeterminismFixtureFiresExactIds)
{
    auto res = plainEngine().runOnFile(
        loadFixture("determinism.cpp", "src/campaign/fixture.cpp"));
    auto ids = idCounts(res);
    EXPECT_EQ(ids["MJ-DET-001"], 2); // rand(), mt19937
    EXPECT_EQ(ids["MJ-DET-002"], 2); // time(), steady_clock
    EXPECT_EQ(ids["MJ-DET-003"], 1); // unordered_map
    EXPECT_EQ(ids["MJ-DET-004"], 1); // map<const Block *, ...>
    EXPECT_EQ(res.findings.size(), 6u);
}

TEST(Rules, DeterminismScopeCoversXiangshan)
{
    // Regression for the scope extension that came with the scheduler
    // fast paths: the DUT timing model must be bit-reproducible (the
    // sched_diff rig depends on it), so src/xiangshan/ is inside the
    // MJ-DET contract and fires exactly like src/campaign/.
    auto res = plainEngine().runOnFile(
        loadFixture("determinism.cpp", "src/xiangshan/fixture.cpp"));
    auto ids = idCounts(res);
    EXPECT_EQ(ids["MJ-DET-001"], 2);
    EXPECT_EQ(ids["MJ-DET-002"], 2);
    EXPECT_EQ(ids["MJ-DET-003"], 1);
    EXPECT_EQ(ids["MJ-DET-004"], 1);
    EXPECT_EQ(res.findings.size(), 6u);
}

TEST(Rules, DeterminismScopeIsEnforced)
{
    // Same content outside the deterministic paths: no contract, no
    // findings (src/uarch is free to use host RNG).
    auto res = plainEngine().runOnFile(
        loadFixture("determinism.cpp", "src/uarch/fixture.cpp"));
    EXPECT_TRUE(res.findings.empty());
}

TEST(Rules, ProbeFixtureFiresExactIds)
{
    auto res = plainEngine().runOnFile(
        loadFixture("probe.cpp", "src/nemu/fixture.cpp"));
    auto ids = idCounts(res);
    EXPECT_EQ(ids["MJ-PRB-001"], 1); // st.x[...] =
    EXPECT_EQ(ids["MJ-PRB-002"], 1); // st.f[...] |=
    EXPECT_EQ(ids["MJ-PRB-003"], 1); // st.csr.mstatus =
    EXPECT_EQ(res.findings.size(), 3u);
}

TEST(Rules, ProbeAccessorHomesAreExempt)
{
    // arch_state.h IS the accessor; the rule must not flag the
    // implementation it funnels everything into.
    auto res = plainEngine().runOnFile(
        loadFixture("probe.cpp", "src/iss/arch_state.h"));
    EXPECT_TRUE(res.findings.empty());
}

TEST(Rules, ForkFixtureFiresExactIds)
{
    auto res = plainEngine().runOnFile(
        loadFixture("fork.cpp", "src/lightsss/fixture.cpp"));
    auto ids = idCounts(res);
    EXPECT_EQ(ids["MJ-FRK-001"], 1); // std::thread
    EXPECT_EQ(ids["MJ-FRK-002"], 1); // std::mutex
    EXPECT_EQ(ids["MJ-FRK-003"], 1); // printf (stderr fprintf is clean)
    EXPECT_EQ(res.findings.size(), 3u);
}

TEST(Rules, ForkRulesStopAtLightsssBoundary)
{
    // The campaign driver quiesces before snapshots, and the sampled
    // engine runs its slices on threads and never forks; threads and
    // mutexes are legal in both.
    for (const char *path :
         {"src/campaign/fixture.cpp", "src/sample/fixture.cpp"}) {
        auto res = plainEngine().runOnFile(loadFixture("fork.cpp", path));
        for (const Finding &f : res.findings)
            EXPECT_NE(f.ruleId.substr(0, 6), "MJ-FRK")
                << path << ": " << f.ruleId;
    }
}

TEST(Rules, LayoutFixtureFlagsOnlyUnpinnedStruct)
{
    auto res = plainEngine().runOnFile(
        loadFixture("layout.cpp", "src/nemu/fixture.h"));
    ASSERT_EQ(res.findings.size(), 1u);
    EXPECT_EQ(res.findings[0].ruleId, "MJ-LAY-001");
    EXPECT_NE(res.findings[0].message.find("Unpinned"),
              std::string::npos);
}

TEST(Rules, SuppressedFixtureHonorsAndPolicesDirectives)
{
    auto res = plainEngine().runOnFile(
        loadFixture("suppressed.cpp", "src/campaign/fixture.cpp"));
    // Two justified directives suppress their rand() calls; the bare
    // one suppresses nothing and is itself reported.
    EXPECT_EQ(res.suppressedInline, 2u);
    auto ids = idCounts(res);
    EXPECT_EQ(ids["MJ-SUP-001"], 1);
    EXPECT_EQ(ids["MJ-DET-001"], 1); // the one the bare allow missed
    EXPECT_EQ(res.findings.size(), 2u);
}

TEST(Rules, RuleFilterRestrictsOutput)
{
    EngineConfig cfg;
    cfg.onlyRules = {"MJ-DET-003"};
    auto res = Engine(cfg).runOnFile(
        loadFixture("determinism.cpp", "src/campaign/fixture.cpp"));
    ASSERT_EQ(res.findings.size(), 1u);
    EXPECT_EQ(res.findings[0].ruleId, "MJ-DET-003");

    // Every kind of known id passes; an id naming no rule would check
    // nothing, so it is reported instead of silently ignored.
    cfg.onlyRules = {"MJ-DET-003", "MJ-FRK2-001", "MJ-SUP-001",
                     "MJ-NOPE-999"};
    EXPECT_EQ(Engine(cfg).unknownRules(),
              std::vector<std::string>{"MJ-NOPE-999"});
}

TEST(Rules, EveryFamilyIsRegistered)
{
    auto e = plainEngine();
    std::map<std::string, int> families;
    for (const auto &r : e.rules())
        ++families[std::string(r->id().substr(0, 6))];
    EXPECT_EQ(families["MJ-DET"], 4);
    EXPECT_EQ(families["MJ-PRB"], 3);
    EXPECT_EQ(families["MJ-FRK"], 3);
    EXPECT_EQ(families["MJ-LAY"], 1);
}

} // namespace
} // namespace minjie::analysis
