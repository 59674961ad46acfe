/**
 * @file
 * The lint engine: walks the tree, tokenizes each source file, runs
 * every per-file rule in scope, merges the per-TU symbol indexes into
 * a whole-program call graph, runs the interprocedural rules over it,
 * then applies inline suppressions and the baseline.
 */

#ifndef MINJIE_ANALYSIS_ENGINE_H
#define MINJIE_ANALYSIS_ENGINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/finding.h"
#include "analysis/rule.h"
#include "analysis/rules_graph.h"

namespace minjie::analysis {

struct EngineConfig
{
    std::string root;                  ///< repo root (absolute or cwd-rel)
    std::vector<std::string> scanDirs = {"src", "tools"};
    std::vector<std::string> excludePrefixes; ///< repo-relative prefixes
    std::string baselinePath;          ///< empty = no baseline
    std::vector<std::string> onlyRules; ///< restrict to these ids
};

struct EngineResult
{
    std::vector<Finding> findings;      ///< unsuppressed, sorted
    uint64_t filesScanned = 0;
    uint64_t suppressedInline = 0;
    uint64_t suppressedBaseline = 0;
    std::vector<std::string> staleBaseline; ///< unused baseline entries
};

class Engine
{
  public:
    explicit Engine(EngineConfig cfg);

    /** Scan the configured tree (per-file + interprocedural pass). */
    EngineResult run() const;

    /** Lint a single in-memory file with the per-file rules only
     *  (unit tests / fixtures). */
    EngineResult runOnFile(const SourceFile &file) const;

    /** Full pipeline — per-file rules, call graph, graph rules — over
     *  in-memory files. No baseline. */
    EngineResult runOnFiles(const std::vector<SourceFile> &files) const;

    /** The configured rule ids that name no per-file rule, no graph
     *  rule and not MJ-SUP-001 (in configuration order). */
    std::vector<std::string> unknownRules() const;

    const std::vector<std::unique_ptr<Rule>> &rules() const
    {
        return rules_;
    }

    const std::vector<std::unique_ptr<GraphRule>> &graphRules() const
    {
        return graphRules_;
    }

  private:
    bool idSelected(std::string_view id) const;
    bool ruleApplies(const Rule &r, const std::string &relPath) const;

    struct FileResult;

    /** Lex + per-file rules + suppressions + index for one file. */
    FileResult lintOneFile(const SourceFile &file) const;

    EngineConfig cfg_;
    std::vector<std::unique_ptr<Rule>> rules_;
    std::vector<std::unique_ptr<GraphRule>> graphRules_;
};

/** Repo-relative paths of every lintable file under cfg's scan dirs,
 *  sorted so reports are stable across filesystems. */
std::vector<std::string> collectFiles(const EngineConfig &cfg);

} // namespace minjie::analysis

#endif // MINJIE_ANALYSIS_ENGINE_H
