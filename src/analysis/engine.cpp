#include "analysis/engine.h"

#include <algorithm>
#include <filesystem>
#include <map>

#include "analysis/baseline.h"
#include "analysis/callgraph.h"
#include "analysis/index.h"
#include "analysis/suppress.h"

namespace minjie::analysis {

namespace fs = std::filesystem;

namespace {

bool
lintableExtension(const fs::path &p)
{
    std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

bool
hasPrefix(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

void
sortFindings(std::vector<Finding> &v)
{
    std::sort(v.begin(), v.end(), [](const Finding &a, const Finding &b) {
        if (a.path != b.path)
            return a.path < b.path;
        if (a.line != b.line)
            return a.line < b.line;
        return a.ruleId < b.ruleId;
    });
}

std::string
trimmed(std::string_view s)
{
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
        s.remove_prefix(1);
    while (!s.empty() &&
           (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
        s.remove_suffix(1);
    return std::string(s);
}

} // namespace

std::vector<std::string>
collectFiles(const EngineConfig &cfg)
{
    std::vector<std::string> out;
    for (const std::string &dir : cfg.scanDirs) {
        fs::path base = fs::path(cfg.root) / dir;
        std::error_code ec;
        if (!fs::is_directory(base, ec))
            continue;
        for (fs::recursive_directory_iterator
                 it(base, fs::directory_options::skip_permission_denied,
                    ec),
             end;
             it != end; it.increment(ec)) {
            if (ec)
                break;
            if (!it->is_regular_file(ec) ||
                !lintableExtension(it->path()))
                continue;
            std::string rel =
                fs::relative(it->path(), cfg.root, ec).generic_string();
            bool excluded = false;
            for (const std::string &px : cfg.excludePrefixes)
                if (hasPrefix(rel, px)) {
                    excluded = true;
                    break;
                }
            if (!excluded)
                out.push_back(std::move(rel));
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** Everything the engine learns about one file. */
struct Engine::FileResult
{
    explicit FileResult(Suppressions s) : sup(std::move(s)) {}

    Suppressions sup;
    std::vector<Finding> findings; ///< per-file, post-inline-suppression
    uint64_t suppressedInline = 0;
    TuIndex index;
};

Engine::Engine(EngineConfig cfg)
    : cfg_(std::move(cfg)), rules_(makeDefaultRules()),
      graphRules_(makeGraphRules())
{
}

bool
Engine::idSelected(std::string_view id) const
{
    if (cfg_.onlyRules.empty())
        return true;
    for (const std::string &want : cfg_.onlyRules)
        if (id == want)
            return true;
    return false;
}

std::vector<std::string>
Engine::unknownRules() const
{
    std::vector<std::string> out;
    for (const std::string &id : cfg_.onlyRules) {
        bool known = id == "MJ-SUP-001";
        for (const auto &rule : rules_)
            known = known || rule->id() == id;
        for (const auto &gr : graphRules_)
            known = known || gr->id() == id;
        if (!known)
            out.push_back(id);
    }
    return out;
}

bool
Engine::ruleApplies(const Rule &r, const std::string &relPath) const
{
    for (const std::string &ex : r.exemptFiles())
        if (relPath == ex)
            return false;
    const auto &scope = r.scope();
    if (scope.empty())
        return true;
    for (const std::string &prefix : scope)
        if (hasPrefix(relPath, prefix))
            return true;
    return false;
}

Engine::FileResult
Engine::lintOneFile(const SourceFile &file) const
{
    LexResult lexed = lex(file);
    RuleContext ctx{file, lexed.tokens, lexed.comments};

    std::vector<Finding> fileFindings;
    for (const auto &rule : rules_) {
        if (!idSelected(rule->id()) || !ruleApplies(*rule, file.path()))
            continue;
        rule->run(ctx, fileFindings);
    }

    // Suppression directives apply to rule findings; malformed
    // directives become findings themselves (never suppressible).
    std::vector<Finding> supDiags;
    FileResult res(Suppressions(file.path(), lexed.comments, file, supDiags));
    for (Finding &f : fileFindings) {
        if (res.sup.allows(f.line, f.ruleId))
            ++res.suppressedInline;
        else
            res.findings.push_back(std::move(f));
    }
    if (idSelected("MJ-SUP-001"))
        for (Finding &f : supDiags)
            res.findings.push_back(std::move(f));

    res.index = buildIndex(file, lexed);
    return res;
}

EngineResult
Engine::run() const
{
    std::vector<SourceFile> files;
    for (const std::string &rel : collectFiles(cfg_)) {
        SourceFile file("", "");
        if (SourceFile::load((fs::path(cfg_.root) / rel).string(), rel, file))
            files.push_back(std::move(file));
    }
    EngineResult res = runOnFiles(files);
    if (cfg_.baselinePath.empty())
        return res;

    Baseline baseline;
    baseline.load(cfg_.baselinePath);
    std::vector<Finding> kept;
    for (Finding &f : res.findings) {
        if (baseline.matches(f))
            ++res.suppressedBaseline;
        else
            kept.push_back(std::move(f));
    }
    res.findings = std::move(kept);
    res.staleBaseline = baseline.unusedEntries();
    return res;
}

EngineResult
Engine::runOnFile(const SourceFile &file) const
{
    EngineResult res;
    res.filesScanned = 1;
    FileResult fr = lintOneFile(file);
    res.suppressedInline = fr.suppressedInline;
    res.findings = std::move(fr.findings);
    sortFindings(res.findings);
    return res;
}

EngineResult
Engine::runOnFiles(const std::vector<SourceFile> &files) const
{
    EngineResult res;
    std::vector<Suppressions> sups;
    std::vector<TuIndex> tus;
    std::map<std::string, size_t> byPath; ///< path -> index in files

    for (size_t i = 0; i < files.size(); ++i) {
        FileResult fr = lintOneFile(files[i]);
        res.suppressedInline += fr.suppressedInline;
        for (Finding &f : fr.findings)
            res.findings.push_back(std::move(f));
        sups.push_back(std::move(fr.sup));
        tus.push_back(std::move(fr.index));
        byPath[files[i].path()] = i;
    }
    res.filesScanned = files.size();

    // Whole-program pass: merge indexes, resolve the call graph, run
    // the interprocedural rules, then apply inline suppressions to
    // their findings exactly like per-file ones.
    ProgramModel model;
    model.build(tus);
    GraphRuleContext gctx{
        model, [&](const std::string &path, uint32_t line) {
            auto it = byPath.find(path);
            if (it == byPath.end())
                return std::string();
            return trimmed(files[it->second].lineText(line));
        }};
    std::vector<Finding> graphRaw;
    for (const auto &gr : graphRules_) {
        if (!idSelected(gr->id()))
            continue;
        gr->run(gctx, graphRaw);
    }
    for (Finding &f : graphRaw) {
        auto it = byPath.find(f.path);
        if (it != byPath.end() && sups[it->second].allows(f.line, f.ruleId))
            ++res.suppressedInline;
        else
            res.findings.push_back(std::move(f));
    }

    sortFindings(res.findings);
    return res;
}

} // namespace minjie::analysis
