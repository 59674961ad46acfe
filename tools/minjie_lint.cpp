/**
 * @file
 * minjie-lint: static invariant analyzer for the co-simulation stack.
 *
 * Scans src/ and tools/ for violations of the repo's determinism,
 * probe-accessor, fork-safety, and layout contracts (see
 * src/analysis/rule.h for the rule families).
 *
 * Exit codes: 0 clean, 1 findings (or stale baseline entries),
 * 2 usage / I/O error.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/baseline.h"
#include "analysis/engine.h"
#include "analysis/report.h"

namespace {

using namespace minjie::analysis;

void
usage(FILE *to)
{
    std::fprintf(to,
        "usage: minjie-lint [options]\n"
        "  --root DIR          repo root to scan (default: .)\n"
        "  --scan DIR          scan this dir under root (repeatable;\n"
        "                      default: src tools)\n"
        "  --exclude PREFIX    skip files under this repo-relative "
                              "prefix\n"
        "  --format FMT        human | json | sarif (default: human)\n"
        "  --output FILE       write the report here instead of stdout\n"
        "  --baseline FILE     suppress findings recorded in FILE\n"
        "  --update-baseline   rewrite the baseline from current "
                              "findings\n"
        "  --baseline-budget N fail when the baseline holds more than "
                              "N entries\n"
        "  --rule ID           run only this rule (repeatable)\n"
        "  --list-rules        print the rule registry and exit\n");
}

} // namespace

int
main(int argc, char **argv)
{
    EngineConfig cfg;
    cfg.root = ".";
    cfg.scanDirs.clear();
    std::string format = "human";
    std::string output;
    long baselineBudget = -1;
    bool updateBaseline = false;
    bool listRules = false;

    auto needArg = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "minjie-lint: %s needs an argument\n",
                         argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--root")) {
            cfg.root = needArg(i);
        } else if (!std::strcmp(a, "--scan")) {
            cfg.scanDirs.push_back(needArg(i));
        } else if (!std::strcmp(a, "--exclude")) {
            cfg.excludePrefixes.push_back(needArg(i));
        } else if (!std::strcmp(a, "--format")) {
            format = needArg(i);
        } else if (!std::strcmp(a, "--output")) {
            output = needArg(i);
        } else if (!std::strcmp(a, "--baseline")) {
            cfg.baselinePath = needArg(i);
        } else if (!std::strcmp(a, "--update-baseline")) {
            updateBaseline = true;
        } else if (!std::strcmp(a, "--baseline-budget")) {
            // An unparsed or negative budget would silently run as 0
            // or switch the ratchet off.
            const char *arg = needArg(i);
            char *end = nullptr;
            errno = 0;
            baselineBudget = std::strtol(arg, &end, 10);
            if (end == arg || *end != '\0' || errno == ERANGE ||
                baselineBudget < 0) {
                std::fprintf(stderr,
                             "minjie-lint: invalid --baseline-budget %s "
                             "(want a count >= 0)\n",
                             arg);
                return 2;
            }
        } else if (!std::strcmp(a, "--rule")) {
            cfg.onlyRules.push_back(needArg(i));
        } else if (!std::strcmp(a, "--list-rules")) {
            listRules = true;
        } else if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "minjie-lint: unknown option %s\n", a);
            usage(stderr);
            return 2;
        }
    }
    if (cfg.scanDirs.empty())
        cfg.scanDirs = {"src", "tools"};

    Engine engine(cfg);

    if (listRules) {
        for (const auto &rule : engine.rules()) {
            std::printf("%-12s %s\n",
                        std::string(rule->id()).c_str(),
                        std::string(rule->summary()).c_str());
            for (const std::string &dir : rule->scope())
                std::printf("             scope: %s\n", dir.c_str());
        }
        for (const auto &rule : engine.graphRules())
            std::printf("%-12s %s\n             scope: call graph\n",
                        std::string(rule->id()).c_str(),
                        std::string(rule->summary()).c_str());
        std::printf("%-12s %s\n             scope: everywhere\n",
                    "MJ-SUP-001",
                    "lint:allow without a rule id or a justification");
        return 0;
    }

    // A misspelled or retired id would otherwise check nothing and
    // pass.
    std::vector<std::string> unknown = engine.unknownRules();
    for (const std::string &id : unknown)
        std::fprintf(stderr, "minjie-lint: unknown rule %s\n", id.c_str());
    if (!unknown.empty())
        return 2;

    if (updateBaseline) {
        // Collect unbaselined findings, then record them all.
        std::string keep = cfg.baselinePath;
        cfg.baselinePath.clear();
        EngineResult res = Engine(cfg).run();
        if (keep.empty()) {
            std::fprintf(stderr,
                         "minjie-lint: --update-baseline needs "
                         "--baseline FILE\n");
            return 2;
        }
        if (!Baseline::write(keep, res.findings)) {
            std::fprintf(stderr,
                         "minjie-lint: cannot write baseline %s\n",
                         keep.c_str());
            return 2;
        }
        std::printf("minjie-lint: recorded %zu finding%s into %s\n",
                    res.findings.size(),
                    res.findings.size() == 1 ? "" : "s", keep.c_str());
        return 0;
    }

    // A baseline line that does not parse would otherwise be dropped
    // silently, un-hiding its finding or slipping under the budget.
    Baseline bl;
    if (!cfg.baselinePath.empty() && !bl.load(cfg.baselinePath)) {
        std::fprintf(stderr, "minjie-lint: malformed baseline %s\n",
                     cfg.baselinePath.c_str());
        return 2;
    }

    // Baseline ratchet: the budget caps how many findings may hide in
    // the baseline file. CI pins 0, so growing the baseline instead of
    // fixing (or justifying an inline allow) fails the build.
    if (baselineBudget >= 0 && !cfg.baselinePath.empty() &&
        bl.size() > static_cast<size_t>(baselineBudget)) {
        std::fprintf(stderr,
                     "minjie-lint: baseline holds %zu entries, "
                     "budget is %ld — fix the findings or raise "
                     "the budget with justification\n",
                     bl.size(), baselineBudget);
        return 1;
    }

    EngineResult res = engine.run();

    std::string report;
    if (format == "human")
        report = renderHuman(res);
    else if (format == "json")
        report = renderJson(res);
    else if (format == "sarif")
        report = renderSarif(res, engine);
    else {
        std::fprintf(stderr, "minjie-lint: unknown format %s\n",
                     format.c_str());
        return 2;
    }

    if (output.empty()) {
        std::fputs(report.c_str(), stdout);
    } else {
        FILE *f = std::fopen(output.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "minjie-lint: cannot open %s\n",
                         output.c_str());
            return 2;
        }
        std::fputs(report.c_str(), f);
        std::fclose(f);
        // Keep the human summary visible even when redirecting.
        if (format != "human")
            std::printf("minjie-lint: %zu finding%s -> %s\n",
                        res.findings.size(),
                        res.findings.size() == 1 ? "" : "s",
                        output.c_str());
    }

    return res.findings.empty() && res.staleBaseline.empty() ? 0 : 1;
}
