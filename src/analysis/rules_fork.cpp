/**
 * @file
 * MJ-FRK-*: fork-safety between LightSSS snapshot points.
 *
 * LightSSS snapshots the whole process with fork() (paper Section
 * III-C): anything that is unsafe to duplicate mid-flight — running
 * threads, held mutexes, buffered stdio bytes — corrupts either the
 * parent or the woken replay child. These rules keep such constructs
 * out of src/lightsss/ entirely; the driver layers above may use them
 * freely because they quiesce before ticking the snapshotter.
 */

#include "analysis/rules_impl.h"

namespace minjie::analysis {

namespace {

/** The tracer's record path runs between fork points too: a LightSSS
 *  replay child inherits the ring buffer mid-flight, so src/obs/ must
 *  obey the same no-locks / no-thread / no-buffered-stdio rules. */
const std::vector<std::string> FRK_SCOPE = {"src/lightsss/", "src/obs/"};

class ThreadSpawn final : public BasicRule
{
  public:
    ThreadSpawn()
        : BasicRule("MJ-FRK-001",
                    "thread spawn reachable between fork points: only "
                    "the forking thread survives in the child",
                    FRK_SCOPE)
    {
    }

    void
    run(const RuleContext &ctx, std::vector<Finding> &out) const override
    {
        const auto &toks = ctx.tokens;
        for (size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            bool stdQualified =
                i >= 2 && toks[i - 1].is("::") && toks[i - 2].is("std");
            if ((t.isIdent("thread") || t.isIdent("jthread")) &&
                stdQualified) {
                report(ctx, t,
                       "std::" + std::string(t.text) +
                           " in LightSSS scope: fork() clones only the "
                           "calling thread, so a live pool deadlocks "
                           "the snapshot child",
                       out);
            } else if (t.isIdent("pthread_create") ||
                       (t.isIdent("async") && stdQualified)) {
                report(ctx, t,
                       std::string(t.text) +
                           " spawns a thread the snapshot child will "
                           "not inherit",
                       out);
            }
        }
    }
};

class LockAcrossFork final : public BasicRule
{
  public:
    LockAcrossFork()
        : BasicRule("MJ-FRK-002",
                    "lock primitive reachable between fork points: a "
                    "mutex held at fork() stays locked forever in the "
                    "child",
                    FRK_SCOPE)
    {
    }

    void
    run(const RuleContext &ctx, std::vector<Finding> &out) const override
    {
        static const std::string_view names[] = {
            "mutex",          "recursive_mutex",    "shared_mutex",
            "timed_mutex",    "lock_guard",         "unique_lock",
            "scoped_lock",    "condition_variable", "pthread_mutex_t",
            "pthread_mutex_lock"};
        for (const Token &t : ctx.tokens) {
            if (t.kind != Tok::Ident)
                continue;
            for (std::string_view n : names)
                if (t.text == n) {
                    report(ctx, t,
                           std::string(t.text) +
                               " in LightSSS scope: a lock held by "
                               "another thread at fork() can never be "
                               "released in the snapshot child",
                           out);
                    break;
                }
        }
    }
};

class BufferedStdio final : public BasicRule
{
  public:
    BufferedStdio()
        : BasicRule("MJ-FRK-003",
                    "buffered FILE* write between fork points: pending "
                    "bytes are flushed twice, once per process",
                    FRK_SCOPE)
    {
    }

    void
    run(const RuleContext &ctx, std::vector<Finding> &out) const override
    {
        static const std::vector<std::string_view> calls = {
            "printf", "fprintf", "vfprintf", "fwrite",
            "fputs",  "fputc",   "puts",     "putchar"};
        const auto &toks = ctx.tokens;
        for (size_t i = 0; i < toks.size(); ++i) {
            size_t callee = i;
            // std::fprintf(...) — check the unqualified name.
            if (toks[i].kind != Tok::Ident)
                continue;
            bool found = false;
            for (std::string_view c : calls)
                if (toks[i].text == c) {
                    found = true;
                    break;
                }
            if (!found)
                continue;
            if (i + 1 >= toks.size() || !toks[i + 1].is("("))
                continue;
            if (i > 0 && (toks[i - 1].is(".") || toks[i - 1].is("->")))
                continue;
            // fprintf(stderr, ...) is tolerated: stderr is unbuffered
            // by default, so nothing pends across the fork.
            if ((toks[i].is("fprintf") || toks[i].is("vfprintf") ||
                 toks[i].is("fputs") || toks[i].is("fputc")) &&
                i + 2 < toks.size()) {
                size_t arg = i + 2;
                if (toks[arg].isIdent("stderr") ||
                    (arg + 2 < toks.size() &&
                     toks[arg + 2].isIdent("stderr")))
                    continue;
            }
            report(ctx, toks[callee],
                   std::string(toks[callee].text) +
                       "() buffers in user space; bytes pending at "
                       "fork() are emitted by both parent and snapshot "
                       "child — use write()/dprintf or the (flushing) "
                       "MJ_* logger",
                   out);
        }
    }
};

} // namespace

std::vector<std::unique_ptr<Rule>>
makeForkRules()
{
    std::vector<std::unique_ptr<Rule>> rules;
    rules.push_back(std::make_unique<ThreadSpawn>());
    rules.push_back(std::make_unique<LockAcrossFork>());
    rules.push_back(std::make_unique<BufferedStdio>());
    return rules;
}

} // namespace minjie::analysis
