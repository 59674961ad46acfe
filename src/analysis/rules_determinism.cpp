/**
 * @file
 * MJ-DET-*: determinism of the campaign, difftest, and report paths.
 *
 * The campaign engine's contract (PR 1) is that results are invariant
 * across worker counts and reproducible from a seed; these rules ban
 * the host-dependent inputs that silently break that contract.
 */

#include "analysis/rules_impl.h"

namespace minjie::analysis {

namespace {

/** Directories whose outputs must be bit-reproducible from a seed. */
const std::vector<std::string> DET_SCOPE = {
    "src/campaign/",
    "src/difftest/",
    "src/archdb/",
    "src/obs/",
    // BBVs, SimPoint picks and the page pool feed the .mjk bytes.
    "src/checkpoint/",
    "src/sample/", // weighted reduction: worker-count invariant
    "src/xiangshan/", // DUT timing model: cycle-exact across schedulers
    "tools/",
};

class BannedRandom final : public BasicRule
{
  public:
    BannedRandom()
        : BasicRule("MJ-DET-001",
                    "host RNG in a deterministic path; seed minjie::Rng "
                    "instead",
                    DET_SCOPE)
    {
    }

    void
    run(const RuleContext &ctx, std::vector<Finding> &out) const override
    {
        static const std::vector<std::string_view> calls = {
            "rand",   "srand",   "random", "srandom",
            "rand_r", "drand48", "lrand48"};
        const auto &toks = ctx.tokens;
        for (size_t i = 0; i < toks.size(); ++i) {
            if (isPlainCall(toks, i, calls)) {
                report(ctx, toks[i],
                       "call to " + std::string(toks[i].text) +
                           "() draws from host RNG state; all campaign/"
                           "difftest randomness must come from a seeded "
                           "minjie::Rng",
                       out);
                continue;
            }
            if (toks[i].isIdent("random_device") ||
                toks[i].isIdent("mt19937") ||
                toks[i].isIdent("mt19937_64")) {
                report(ctx, toks[i],
                       "std::" + std::string(toks[i].text) +
                           " is not seed-reproducible across hosts; use "
                           "minjie::Rng",
                       out);
            }
        }
    }
};

class BannedWallClock final : public BasicRule
{
  public:
    BannedWallClock()
        : BasicRule("MJ-DET-002",
                    "wall-clock read in a deterministic path; route "
                    "timing through minjie::Stopwatch",
                    DET_SCOPE)
    {
    }

    void
    run(const RuleContext &ctx, std::vector<Finding> &out) const override
    {
        static const std::vector<std::string_view> calls = {
            "time",      "clock",        "gettimeofday",
            "localtime", "gmtime",       "ctime",
            "mktime",    "clock_gettime"};
        const auto &toks = ctx.tokens;
        for (size_t i = 0; i < toks.size(); ++i) {
            if (isPlainCall(toks, i, calls)) {
                report(ctx, toks[i],
                       "call to " + std::string(toks[i].text) +
                           "() reads the wall clock; keep timing inside "
                           "minjie::Stopwatch and out of functional "
                           "outputs (seeds, orderings, signatures)",
                       out);
                continue;
            }
            if (toks[i].isIdent("system_clock") ||
                toks[i].isIdent("steady_clock") ||
                toks[i].isIdent("high_resolution_clock")) {
                report(ctx, toks[i],
                       "std::chrono::" + std::string(toks[i].text) +
                           " in a deterministic path; use "
                           "minjie::Stopwatch for reporting-only timing",
                       out);
            }
        }
    }
};

class UnorderedContainer final : public BasicRule
{
  public:
    UnorderedContainer()
        : BasicRule("MJ-DET-003",
                    "std::unordered_* container in a deterministic "
                    "path: iteration order is host-dependent",
                    DET_SCOPE)
    {
    }

    void
    run(const RuleContext &ctx, std::vector<Finding> &out) const override
    {
        for (const Token &t : ctx.tokens) {
            if (t.isIdent("unordered_map") ||
                t.isIdent("unordered_set") ||
                t.isIdent("unordered_multimap") ||
                t.isIdent("unordered_multiset")) {
                report(ctx, t,
                       "std::" + std::string(t.text) +
                           " iterates in hash order, which varies with "
                           "libstdc++ version and pointer layout; use "
                           "std::map / sorted vector, or suppress with "
                           "a justification if the container is "
                           "lookup-only",
                       out);
            }
        }
    }
};

class PointerKeyedOrder final : public BasicRule
{
  public:
    PointerKeyedOrder()
        : BasicRule("MJ-DET-004",
                    "pointer-keyed ordered container: iteration order "
                    "follows allocation addresses",
                    DET_SCOPE)
    {
    }

    void
    run(const RuleContext &ctx, std::vector<Finding> &out) const override
    {
        const auto &toks = ctx.tokens;
        for (size_t i = 0; i + 1 < toks.size(); ++i) {
            if (!(toks[i].isIdent("map") || toks[i].isIdent("set") ||
                  toks[i].isIdent("multimap") ||
                  toks[i].isIdent("multiset")))
                continue;
            if (!toks[i + 1].is("<"))
                continue;
            size_t close = matchBracket(toks, i + 1);
            if (close == toks.size())
                continue;
            // Scan the first template argument (the key type) only.
            int depth = 0;
            for (size_t j = i + 2; j < close; ++j) {
                if (toks[j].is("<") || toks[j].is("(") || toks[j].is("["))
                    ++depth;
                else if (toks[j].is(">") || toks[j].is(")") ||
                         toks[j].is("]"))
                    --depth;
                else if (toks[j].is(",") && depth == 0)
                    break;
                else if (toks[j].is("*") && depth == 0) {
                    report(ctx, toks[i],
                           "std::" + std::string(toks[i].text) +
                               " keyed by a pointer orders entries by "
                               "allocation address; key by a stable id "
                               "(name, index) instead",
                           out);
                    break;
                }
            }
        }
    }
};

} // namespace

std::vector<std::unique_ptr<Rule>>
makeDeterminismRules()
{
    std::vector<std::unique_ptr<Rule>> rules;
    rules.push_back(std::make_unique<BannedRandom>());
    rules.push_back(std::make_unique<BannedWallClock>());
    rules.push_back(std::make_unique<UnorderedContainer>());
    rules.push_back(std::make_unique<PointerKeyedOrder>());
    return rules;
}

} // namespace minjie::analysis
