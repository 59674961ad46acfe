/**
 * @file
 * Interprocedural rule interface: rules that run once over the merged
 * ProgramModel instead of per file. Families:
 *
 *   MJ-FRK2-*  fork-unsafe work transitively reachable from LightSSS
 *   MJ-DET2-*  nondeterminism taint reaching deterministic paths
 *   MJ-PRB2-*  arch-state stores reachable around the accessors
 */

#ifndef MINJIE_ANALYSIS_RULES_GRAPH_H
#define MINJIE_ANALYSIS_RULES_GRAPH_H

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/finding.h"

namespace minjie::analysis {

/** Everything a graph rule may inspect. */
struct GraphRuleContext
{
    const ProgramModel &model;
    /** Whitespace-trimmed source text of path:line ("" when the file
     *  is not in the program). */
    std::function<std::string(const std::string &path, uint32_t line)>
        snippet;
};

class GraphRule
{
  public:
    virtual ~GraphRule() = default;

    virtual std::string_view id() const = 0;

    /** One-line description rendered into SARIF rule metadata. */
    virtual std::string_view summary() const = 0;

    virtual void run(const GraphRuleContext &ctx,
                     std::vector<Finding> &out) const = 0;
};

/** The interprocedural rule set, in stable id order. */
std::vector<std::unique_ptr<GraphRule>> makeGraphRules();

} // namespace minjie::analysis

#endif // MINJIE_ANALYSIS_RULES_GRAPH_H
