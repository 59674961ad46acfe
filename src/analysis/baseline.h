/**
 * @file
 * Checked-in finding baseline.
 *
 * The baseline lets a new rule land before every legacy finding is
 * fixed: known findings are recorded by fingerprint and reported
 * separately from fresh ones. The repo's own baseline
 * (`.minjie-lint-baseline`) is kept empty — the tree is lint-clean —
 * but the mechanism is exercised by tests and available to future
 * rules.
 *
 * Format: one entry per line,
 *   <rule-id> <path> <16-hex fingerprint>  # <snippet>
 * '#' starts a comment; blank lines are ignored.
 */

#ifndef MINJIE_ANALYSIS_BASELINE_H
#define MINJIE_ANALYSIS_BASELINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/finding.h"

namespace minjie::analysis {

class Baseline
{
  public:
    /** Load @p path. Missing file == empty baseline (returns true).
     *  A line that does not parse (missing field, fingerprint not 16
     *  hex digits, trailing text outside a comment) returns false and
     *  leaves the baseline empty. */
    bool load(const std::string &path);

    /** Serialize @p findings as a baseline file at @p path. */
    static bool write(const std::string &path,
                      const std::vector<Finding> &findings);

    /** True when @p f matches a recorded entry (marks it used). */
    bool matches(const Finding &f);

    size_t size() const { return entries_.size(); }

    /** Entries no finding matched: stale, should be pruned. */
    std::vector<std::string> unusedEntries() const;

  private:
    struct Entry
    {
        std::string ruleId;
        std::string path;
        uint64_t fingerprint;
        bool used = false;
    };
    std::vector<Entry> entries_;
};

} // namespace minjie::analysis

#endif // MINJIE_ANALYSIS_BASELINE_H
