/**
 * @file
 * The three interprocedural rule families. Each runs one deterministic
 * multi-root BFS over the ProgramModel and reports events with a
 * call-path witness. Division of labour with the per-file rules: a
 * banned construct INSIDE a rule's per-file scope is the per-file
 * rule's finding; the graph rules add what only the call graph can
 * see — the same construct in a helper defined elsewhere but
 * transitively reachable, plus the few constructs (fflush, exit,
 * cross-TU unordered iteration) that no per-file pattern covers.
 */

#include "analysis/rules_graph.h"

namespace minjie::analysis {

namespace {

bool
pathIn(const std::string &path,
       const std::vector<std::string> &prefixes)
{
    for (const std::string &p : prefixes)
        if (path.compare(0, p.size(), p) == 0)
            return true;
    return false;
}

bool
isAnyOf(std::string_view s, std::initializer_list<std::string_view> set)
{
    for (std::string_view c : set)
        if (s == c)
            return true;
    return false;
}

/** Test code is never a runtime callee of production code; letting
 *  name collisions pull test helpers into the graph is pure noise. */
bool
isTestPath(const std::string &path)
{
    return path.compare(0, 6, "tests/") == 0;
}

/** Sanctioned choke points the graph rules never traverse into: the
 *  flushing logger and the abort/exit error paths quiesce or
 *  terminate, so nothing "reachable through" them matters. */
bool
isSanctionedSink(const Node &n)
{
    if (n.fn->name == "panic" || n.fn->name == "fatal")
        return true;
    return n.fn->qualName.find("Logger::") != std::string::npos ||
           n.fn->qualName.find("Stopwatch::") != std::string::npos ||
           n.fn->qualName.find("Rng::") != std::string::npos;
}

Finding
makeFinding(const GraphRuleContext &ctx, std::string ruleId,
            const std::string &path, uint32_t line, std::string message,
            std::vector<std::string> callPath)
{
    Finding f;
    f.ruleId = std::move(ruleId);
    f.path = path;
    f.line = line;
    f.col = 1;
    f.message = std::move(message);
    f.snippet = ctx.snippet ? ctx.snippet(path, line) : "";
    f.callPath = std::move(callPath);
    return f;
}

class GraphRuleBase : public GraphRule
{
  public:
    GraphRuleBase(std::string id, std::string summary)
        : id_(std::move(id)), summary_(std::move(summary))
    {
    }
    std::string_view id() const override { return id_; }
    std::string_view summary() const override { return summary_; }

  private:
    std::string id_;
    std::string summary_;
};

// ---------------------------------------------------------------- FRK2

const std::vector<std::string> FRK_FILE_SCOPE = {"src/lightsss/",
                                                 "src/obs/"};

/** Functions that sit at a fork point themselves: the LightSSS
 *  snapshotter forks, so everything it reaches runs on a fork path. */
bool
isForkRootPath(const std::string &path)
{
    return path.compare(0, 13, "src/lightsss/") == 0;
}

/** Fork-unsafe work transitively reachable from the LightSSS
 *  snapshot/replay path. */
class ForkReachability final : public GraphRuleBase
{
  public:
    ForkReachability()
        : GraphRuleBase(
              "MJ-FRK2-001",
              "fork-unsafe call transitively reachable from LightSSS: "
              "buffered stdio, locks, threads, or stdio flushes on the "
              "snapshot/replay path")
    {
    }

    void
    run(const GraphRuleContext &ctx,
        std::vector<Finding> &out) const override
    {
        const ProgramModel &m = ctx.model;
        std::vector<uint32_t> roots;
        for (uint32_t id = 0;
             id < static_cast<uint32_t>(m.nodes().size()); ++id)
            if (isForkRootPath(m.nodes()[id].path))
                roots.push_back(id);
        auto parents = m.reach(roots, [&](uint32_t id) {
            const Node &n = m.nodes()[id];
            return !isTestPath(n.path) && !isSanctionedSink(n);
        });

        for (uint32_t id = 0;
             id < static_cast<uint32_t>(m.nodes().size()); ++id) {
            if (parents[id].node == -1)
                continue;
            const Node &n = m.nodes()[id];
            bool inFrkScope = pathIn(n.path, FRK_FILE_SCOPE);
            for (const CallEvent &c : n.fn->calls) {
                bool stderrOnly =
                    c.firstArg.find("stderr") != std::string::npos;
                std::string why;
                // Constructs no per-file rule covers, flagged
                // everywhere on the path.
                if (c.name == "fflush" && !stderrOnly)
                    why = "fflush() emits bytes another process may "
                          "also hold buffered — purge, don't flush, "
                          "inherited stdio state";
                else if (isAnyOf(c.name, {"exit", "atexit",
                                          "at_quick_exit"}))
                    why = c.name + "() runs atexit handlers and "
                                   "flushes inherited stdio; a replay "
                                   "child must _exit()";
                // Constructs the per-file MJ-FRK rules already flag
                // inside their scope — only report them when reached
                // in an out-of-scope helper.
                else if (!inFrkScope) {
                    if (isAnyOf(c.name, {"printf", "puts", "putchar",
                                         "vprintf"}) ||
                        (isAnyOf(c.name, {"fprintf", "vfprintf",
                                          "fputs", "fputc", "fwrite"}) &&
                         !stderrOnly))
                        why = c.name + "() buffers in user space; "
                                       "bytes pending at fork() are "
                                       "emitted by parent and child";
                    else if (isAnyOf(c.name, {"pthread_create",
                                              "thread", "jthread",
                                              "async"}))
                        why = c.name + " spawns a thread the snapshot "
                                       "child will not inherit";
                }
                if (why.empty())
                    continue;
                auto frames = m.witness(parents, id, c.line);
                out.push_back(makeFinding(
                    ctx, "MJ-FRK2-001", n.path, c.line,
                    "reachable from a fork path: " + why,
                    std::move(frames)));
            }
            if (!inFrkScope) {
                for (const LockEvent &l : n.fn->locks) {
                    auto frames = m.witness(parents, id, l.line);
                    out.push_back(makeFinding(
                        ctx, "MJ-FRK2-001", n.path, l.line,
                        "lock on '" + l.lockName +
                            "' reachable from a fork path: a mutex "
                            "held by another thread at fork() stays "
                            "locked forever in the child",
                        std::move(frames)));
                }
            }
        }
    }
};

// ---------------------------------------------------------------- DET2

const std::vector<std::string> DET2_SCOPE = {
    "src/campaign/", "src/difftest/",   "src/archdb/",
    "src/obs/",      "src/checkpoint/", "src/sample/",
    "src/xiangshan/", "tools/",
};

/** Nondeterminism taint flowing through calls into deterministic
 *  paths. */
class DeterminismTaint final : public GraphRuleBase
{
  public:
    DeterminismTaint()
        : GraphRuleBase(
              "MJ-DET2-001",
              "nondeterminism (host RNG, wall clock, unordered "
              "iteration) transitively reachable from a deterministic "
              "path")
    {
    }

    void
    run(const GraphRuleContext &ctx,
        std::vector<Finding> &out) const override
    {
        const ProgramModel &m = ctx.model;
        std::vector<uint32_t> roots;
        for (uint32_t id = 0;
             id < static_cast<uint32_t>(m.nodes().size()); ++id)
            if (pathIn(m.nodes()[id].path, DET2_SCOPE))
                roots.push_back(id);
        auto parents = m.reach(roots, [&](uint32_t id) {
            const Node &n = m.nodes()[id];
            return !isTestPath(n.path) && !isSanctionedSink(n);
        });

        for (uint32_t id = 0;
             id < static_cast<uint32_t>(m.nodes().size()); ++id) {
            if (parents[id].node == -1)
                continue;
            const Node &n = m.nodes()[id];
            bool inScope = pathIn(n.path, DET2_SCOPE);
            if (!inScope) {
                // Direct sources in out-of-scope helpers (in-scope
                // ones are the per-file MJ-DET rules' findings).
                for (const DetEvent &d : n.fn->detSources) {
                    auto frames = m.witness(parents, id, d.line);
                    out.push_back(makeFinding(
                        ctx, "MJ-DET2-001", n.path, d.line,
                        d.what +
                            " is host-nondeterministic and reachable "
                            "from a deterministic path; outputs must "
                            "be a pure function of the seed",
                        std::move(frames)));
                }
            }
            for (const IterEvent &it : n.fn->iterUses) {
                for (const std::string &name : it.names) {
                    // Out of scope: any unordered container counts.
                    // In scope: only a container declared unordered in
                    // ANOTHER TU — the per-file MJ-DET-003 already
                    // flags same-file unordered declarations/uses.
                    bool hit = !inScope
                                   ? m.isUnordered(name)
                                   : m.isUnorderedElsewhere(name,
                                                            n.path);
                    if (!hit)
                        continue;
                    auto frames = m.witness(parents, id, it.line);
                    out.push_back(makeFinding(
                        ctx, "MJ-DET2-001", n.path, it.line,
                        "iteration over '" + name +
                            "', declared std::unordered_*: order is "
                            "host-dependent yet this code is "
                            "reachable from a deterministic path; "
                            "iterate in sorted key order",
                        std::move(frames)));
                    break;
                }
            }
        }
    }
};

// ---------------------------------------------------------------- PRB2

const std::vector<std::string> PRB_SCOPE = {
    "src/iss/",
    "src/nemu/",
    "src/difftest/",
};

const std::vector<std::string> PRB_EXEMPT = {
    "src/iss/arch_state.h",
    "src/iss/arch_state.cpp",
    "src/iss/csrfile.h",
    "src/iss/csrfile.cpp",
};

/** Arch-state stores reachable from engine code without passing the
 *  accessor choke points. */
class ProbeBypassReachability final : public GraphRuleBase
{
  public:
    ProbeBypassReachability()
        : GraphRuleBase(
              "MJ-PRB2-001",
              "arch-state store in a helper reachable from engine "
              "code without passing an accessor choke point")
    {
    }

    void
    run(const GraphRuleContext &ctx,
        std::vector<Finding> &out) const override
    {
        const ProgramModel &m = ctx.model;
        auto exempt = [&](const std::string &path) {
            for (const std::string &e : PRB_EXEMPT)
                if (path == e)
                    return true;
            return false;
        };
        std::vector<uint32_t> roots;
        for (uint32_t id = 0;
             id < static_cast<uint32_t>(m.nodes().size()); ++id) {
            const Node &n = m.nodes()[id];
            if (pathIn(n.path, PRB_SCOPE) && !exempt(n.path))
                roots.push_back(id);
        }
        // The accessors ARE the choke point: a store reached through
        // them is sanctioned, so the BFS never enters exempt files.
        auto parents = m.reach(roots, [&](uint32_t id) {
            const Node &n = m.nodes()[id];
            return !isTestPath(n.path) && !exempt(n.path);
        });

        for (uint32_t id = 0;
             id < static_cast<uint32_t>(m.nodes().size()); ++id) {
            if (parents[id].node == -1)
                continue;
            const Node &n = m.nodes()[id];
            if (pathIn(n.path, PRB_SCOPE))
                continue; // per-file MJ-PRB territory
            for (const WriteEvent &w : n.fn->archWrites) {
                auto frames = m.witness(parents, id, w.line);
                out.push_back(makeFinding(
                    ctx, "MJ-PRB2-001", n.path, w.line,
                    "direct " + w.what +
                        " in a helper reachable from engine code "
                        "bypasses the ArchState/CsrFile accessor "
                        "choke point (and its DiffTest probes)",
                    std::move(frames)));
            }
        }
    }
};

} // namespace

std::vector<std::unique_ptr<GraphRule>>
makeGraphRules()
{
    std::vector<std::unique_ptr<GraphRule>> rules;
    rules.push_back(std::make_unique<DeterminismTaint>());
    rules.push_back(std::make_unique<ForkReachability>());
    rules.push_back(std::make_unique<ProbeBypassReachability>());
    return rules;
}

} // namespace minjie::analysis
