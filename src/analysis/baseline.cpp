#include "analysis/baseline.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace minjie::analysis {

namespace {

/** Exactly the 16 hex digits write() emits. */
bool
isFingerprint(const std::string &s)
{
    if (s.size() != 16)
        return false;
    for (char c : s)
        if (!std::isxdigit(static_cast<unsigned char>(c)))
            return false;
    return true;
}

} // namespace

bool
Baseline::load(const std::string &path)
{
    entries_.clear();
    std::ifstream in(path);
    if (!in)
        return true; // no baseline == empty baseline
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string rule, file, fp, rest;
        if (!(fields >> rule) || rule[0] == '#')
            continue; // blank or comment line
        fields >> file >> fp; // a missing field leaves fp empty
        bool trailing = (fields >> rest) && rest[0] != '#';
        if (!isFingerprint(fp) || trailing) {
            entries_.clear();
            return false;
        }
        Entry e;
        e.ruleId = rule;
        e.path = file;
        e.fingerprint = std::stoull(fp, nullptr, 16);
        entries_.push_back(std::move(e));
    }
    return true;
}

bool
Baseline::write(const std::string &path,
                const std::vector<Finding> &findings)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "# minjie-lint baseline: known findings, one per "
                    "line. Regenerate with --update-baseline.\n");
    for (const Finding &fd : findings)
        std::fprintf(f, "%s %s %016" PRIx64 "  # %s\n", fd.ruleId.c_str(),
                     fd.path.c_str(), fd.fingerprint(),
                     fd.snippet.c_str());
    std::fclose(f);
    return true;
}

bool
Baseline::matches(const Finding &f)
{
    uint64_t fp = f.fingerprint();
    for (Entry &e : entries_) {
        if (e.fingerprint == fp && e.ruleId == f.ruleId &&
            e.path == f.path) {
            e.used = true;
            return true;
        }
    }
    return false;
}

std::vector<std::string>
Baseline::unusedEntries() const
{
    std::vector<std::string> out;
    for (const Entry &e : entries_)
        if (!e.used)
            out.push_back(e.ruleId + " " + e.path);
    return out;
}

} // namespace minjie::analysis
