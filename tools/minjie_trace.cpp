/**
 * @file
 * minjie-trace: the observability front door.
 *
 *   minjie-trace record --workload coremark --iters 200 --out run.mjt
 *   minjie-trace record --engine nemu --workload sum --out nemu.mjt
 *   minjie-trace report run.mjt
 *   minjie-trace topdown run.mjt
 *   minjie-trace diff before.mjt after.mjt
 *   minjie-trace chrome run.mjt run.json
 *
 * `record` runs one workload with the counter tree and the ring-buffer
 * tracer attached and writes a .mjt artifact; `report` renders the
 * counter tree, the Figure 15 ready distribution and the top-down CPI
 * stack; `diff` compares two runs counter by counter; `chrome`
 * converts an artifact to Chrome trace_event JSON for chrome://tracing
 * or ui.perfetto.dev.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "archdb/archdb.h"
#include "difftest/difftest.h"
#include "iss/system.h"
#include "nemu/nemu.h"
#include "obs/collect.h"
#include "obs/serialize.h"
#include "obs/topdown.h"
#include "workload/programs.h"
#include "xiangshan/soc.h"

using namespace minjie;
namespace wl = minjie::workload;

namespace {

struct Options
{
    std::string engine = "xiangshan"; // xiangshan|nemu
    std::string config = "nh";
    std::string workload = "coremark";
    uint64_t iters = 200;
    InstCount maxInstrs = 5'000'000;
    Cycle maxCycles = 2'000'000'000;
    size_t traceCap = 4096;
    bool difftest = false;
    bool archdb = false;
    std::string out = "run.mjt";
    std::string chromeOut;
};

void
usage()
{
    std::printf(
        "minjie-trace <record|report|topdown|diff|chrome> [options]\n"
        "record options:\n"
        "  --engine E     xiangshan|nemu (default xiangshan)\n"
        "  --config C     nh|yqh|gem5ish (xiangshan only)\n"
        "  --workload W   coremark|memstress|sum|sv39|<SPEC proxy>\n"
        "  --iters N      workload iterations (default 200)\n"
        "  --max-instrs N instruction budget (default 5M)\n"
        "  --trace-cap N  ring-buffer capacity in events (default 4096)\n"
        "  --difftest     co-simulate against a NEMU REF (xiangshan)\n"
        "  --archdb       print the ArchDB report after the run\n"
        "  --out FILE     .mjt artifact path (default run.mjt)\n"
        "  --chrome FILE  also write Chrome trace_event JSON\n"
        "report/topdown:  minjie-trace report RUN.mjt\n"
        "diff:            minjie-trace diff A.mjt B.mjt\n"
        "chrome:          minjie-trace chrome RUN.mjt [OUT.json]\n");
}

wl::Program
pickWorkload(const Options &opt, bool &ok)
{
    ok = true;
    if (opt.workload == "coremark")
        return wl::coremarkProxy(opt.iters);
    if (opt.workload == "memstress")
        return wl::memStressProgram(opt.iters, 16);
    if (opt.workload == "sum")
        return wl::sumProgram(opt.iters);
    if (opt.workload == "sv39")
        return wl::sv39Program();
    for (const auto &s : wl::specIntSuite())
        if (opt.workload == s.name)
            return wl::buildProxy(s, opt.iters);
    for (const auto &s : wl::specFpSuite())
        if (opt.workload == s.name)
            return wl::buildProxy(s, opt.iters);
    ok = false;
    return {};
}

bool
readFile(const std::string &path, std::string &bytes)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return false;
    std::ostringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
    return true;
}

bool
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary);
    f.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size()));
    f.close();
    return static_cast<bool>(f);
}

bool
loadArtifact(const std::string &path, obs::RunArtifact &art)
{
    std::string bytes;
    if (!readFile(path, bytes)) {
        std::fprintf(stderr, "minjie-trace: cannot read %s\n",
                     path.c_str());
        return false;
    }
    if (!obs::parseMjt(bytes, art)) {
        std::fprintf(stderr, "minjie-trace: %s is not a .mjt artifact\n",
                     path.c_str());
        return false;
    }
    return true;
}

/** Core prefixes ("core0", "dut", ...) that carry top-down buckets. */
std::vector<std::string>
topdownPrefixes(const obs::CounterSnapshot &snap)
{
    std::vector<std::string> out;
    const std::string leaf = ".topdown.retiring";
    for (const auto &[k, v] : snap.values) {
        if (k.size() > leaf.size() &&
            k.compare(k.size() - leaf.size(), leaf.size(), leaf) == 0)
            out.push_back(k.substr(0, k.size() - leaf.size()));
    }
    return out;
}

void
printTopdown(const obs::RunArtifact &art)
{
    for (const auto &prefix : topdownPrefixes(art.counters)) {
        obs::CpiStack stack =
            obs::CpiStack::fromCounters(art.counters, prefix);
        std::string title = art.runLabel.empty()
                                ? prefix
                                : art.runLabel + " " + prefix;
        std::printf("%s", stack.table(title).c_str());
    }
}

void
printReadyHist(const obs::CounterSnapshot &snap,
               const std::string &prefix)
{
    uint64_t samples = snap.get(prefix + ".ready_hist.samples");
    if (!samples)
        return;
    std::printf("ready-instruction distribution (%s, Figure 15):\n",
                prefix.c_str());
    for (unsigned b = 0;; ++b) {
        std::string key =
            prefix + ".ready_hist.bucket" + std::to_string(b);
        if (!snap.has(key))
            break;
        uint64_t v = snap.get(key);
        double pct = 100.0 * static_cast<double>(v) /
                     static_cast<double>(samples);
        std::printf("  %2u%s %10llu  %5.1f%%  ", b,
                    b == 8 ? "+" : " ",
                    static_cast<unsigned long long>(v), pct);
        for (unsigned i = 0; i < static_cast<unsigned>(pct * 0.4); ++i)
            std::printf("#");
        std::printf("\n");
    }
}

int
cmdRecordXiangshan(const Options &opt, const wl::Program &prog,
                   obs::RunArtifact &art)
{
    xs::CoreConfig cfg = opt.config == "yqh" ? xs::CoreConfig::yqh()
                         : opt.config == "gem5ish"
                             ? xs::CoreConfig::gem5ish()
                             : xs::CoreConfig::nh();
    xs::Soc soc(cfg);
    prog.loadInto(soc.system().dram);
    soc.setEntry(prog.entry);

    obs::TraceBuffer trace(opt.traceCap);
    if (obs::enabled()) {
        for (unsigned c = 0; c < soc.numCores(); ++c)
            soc.core(c).setTrace(&trace);
        obs::attachCacheTrace(soc.mem(), trace);
    }

    std::unique_ptr<difftest::DiffTest> dt;
    if (opt.difftest) {
        dt = std::make_unique<difftest::DiffTest>(soc);
        for (const auto &seg : prog.segments)
            dt->loadRefMemory(seg.base, seg.bytes.data(),
                              seg.bytes.size());
        dt->resetRefs(prog.entry);
        dt->attachTrace(&trace);
    }

    Cycle cycle = 0;
    while (cycle < opt.maxCycles &&
           soc.core(0).perf().instrs < opt.maxInstrs) {
        soc.system().clint.tick();
        bool allDone = true;
        Cycle consumed = 1;
        for (unsigned c = 0; c < soc.numCores(); ++c) {
            if (!soc.core(c).done()) {
                consumed = std::max(
                    consumed, soc.core(c).tick(opt.maxCycles - cycle));
                allDone = false;
            }
        }
        cycle += consumed;
        if (consumed > 1)
            soc.system().clint.tick(consumed - 1);
        if (dt && !dt->ok()) {
            std::printf("[difftest] MISMATCH: %s\n",
                        dt->failures().front().c_str());
            break;
        }
        if (allDone)
            break;
    }

    obs::CounterGroup root;
    if (obs::enabled())
        obs::collectSoc(root, soc);
    art.counters = root.snapshot();
    art.events = (dt && !dt->ok() && !dt->divergenceWindow().empty())
                     ? dt->divergenceWindow()
                     : trace.events();

    const auto &p = soc.core(0).perf();
    std::printf("[xiangshan-%s] %llu instrs, %llu cycles, ipc %.3f\n",
                cfg.name.c_str(),
                static_cast<unsigned long long>(p.instrs),
                static_cast<unsigned long long>(p.cycles), p.ipc());
    return 0;
}

int
cmdRecordNemu(const Options &opt, const wl::Program &prog,
              obs::RunArtifact &art)
{
    iss::System sys(256);
    prog.loadInto(sys.dram);
    nemu::Nemu engine(sys.bus, sys.dram, 0, prog.entry);
    engine.setHaltFn([&] { return sys.simctrl.exited(); });

    obs::TraceBuffer trace(opt.traceCap);
    uint64_t blocks = 0;
    if (obs::enabled()) {
        engine.setBlockHook([&](Addr pc, uint32_t len) {
            trace.record(obs::Ev::Block, blocks++, pc, len);
        });
    }

    // The block hook fires on the threaded-code engine itself, so
    // traced and untraced runs take the same fast path.
    iss::RunResult r = engine.run(opt.maxInstrs);

    obs::CounterGroup root;
    if (obs::enabled()) {
        obs::collectNemu(root, engine);
        root.set("instrs", r.executed);
    }
    art.counters = root.snapshot();
    art.events = trace.events();

    std::printf("[nemu] %llu instructions%s\n",
                static_cast<unsigned long long>(r.executed),
                r.halted ? "" : " [budget reached]");
    return 0;
}

int
cmdRecord(const Options &opt)
{
    bool ok;
    wl::Program prog = pickWorkload(opt, ok);
    if (!ok) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }

    obs::RunArtifact art;
    art.runLabel = opt.workload + "@" +
                   (opt.engine == "nemu" ? "nemu" : opt.config);

    int rc = opt.engine == "nemu" ? cmdRecordNemu(opt, prog, art)
                                  : cmdRecordXiangshan(opt, prog, art);
    if (rc)
        return rc;

    if (!writeFile(opt.out, obs::serializeMjt(art))) {
        std::fprintf(stderr, "minjie-trace: cannot write %s\n",
                     opt.out.c_str());
        return 2;
    }
    std::printf("wrote %s (%zu counters, %zu events)\n",
                opt.out.c_str(), art.counters.values.size(),
                art.events.size());

    if (!opt.chromeOut.empty()) {
        if (!writeFile(opt.chromeOut, obs::toChromeJson(art))) {
            std::fprintf(stderr, "minjie-trace: cannot write %s\n",
                         opt.chromeOut.c_str());
            return 2;
        }
        std::printf("wrote %s\n", opt.chromeOut.c_str());
    }

    if (opt.archdb) {
        archdb::ArchDB db;
        obs::exportToArchDB(db, art.counters);
        obs::exportTraceToArchDB(db, art.events);
        std::printf("%s", db.report().c_str());
    }

    printTopdown(art);
    return 0;
}

int
cmdReport(const std::string &path)
{
    obs::RunArtifact art;
    if (!loadArtifact(path, art))
        return 2;

    std::printf("run: %s\n", art.runLabel.c_str());
    std::printf("counters (%zu):\n", art.counters.values.size());
    for (const auto &[k, v] : art.counters.values)
        std::printf("  %-44s %llu\n", k.c_str(),
                    static_cast<unsigned long long>(v));

    std::printf("trace: %zu events\n", art.events.size());
    for (const auto &prefix : topdownPrefixes(art.counters))
        printReadyHist(art.counters, prefix);
    printTopdown(art);
    return 0;
}

int
cmdTopdown(const std::string &path)
{
    obs::RunArtifact art;
    if (!loadArtifact(path, art))
        return 2;
    printTopdown(art);
    return 0;
}

int
cmdDiff(const std::string &pathA, const std::string &pathB)
{
    obs::RunArtifact a, b;
    if (!loadArtifact(pathA, a) || !loadArtifact(pathB, b))
        return 2;

    std::printf("diff: %s (A) vs %s (B)\n", a.runLabel.c_str(),
                b.runLabel.c_str());
    obs::CounterSnapshot all = a.counters;
    all.merge(b.counters); // union of keys (values unused below)
    unsigned changed = 0;
    for (const auto &[k, unused] : all.values) {
        (void)unused;
        uint64_t va = a.counters.get(k);
        uint64_t vb = b.counters.get(k);
        if (va == vb)
            continue;
        ++changed;
        int64_t d = static_cast<int64_t>(vb) - static_cast<int64_t>(va);
        std::printf("  %-44s %12llu -> %-12llu (%+lld)\n", k.c_str(),
                    static_cast<unsigned long long>(va),
                    static_cast<unsigned long long>(vb),
                    static_cast<long long>(d));
    }
    std::printf("%u counters differ\n", changed);
    return 0;
}

int
cmdChrome(const std::string &inPath, const std::string &outPath)
{
    obs::RunArtifact art;
    if (!loadArtifact(inPath, art))
        return 2;
    std::string json = obs::toChromeJson(art);
    if (outPath.empty() || outPath == "-") {
        std::printf("%s\n", json.c_str());
        return 0;
    }
    if (!writeFile(outPath, json)) {
        std::fprintf(stderr, "minjie-trace: cannot write %s\n",
                     outPath.c_str());
        return 2;
    }
    std::printf("wrote %s\n", outPath.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    std::string cmd = argv[1];

    if (cmd == "--help" || cmd == "-h") {
        usage();
        return 0;
    }

    std::vector<std::string> positional;
    Options opt;
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--engine")
            opt.engine = next();
        else if (a == "--config")
            opt.config = next();
        else if (a == "--workload")
            opt.workload = next();
        else if (a == "--iters")
            opt.iters = std::strtoull(next(), nullptr, 0);
        else if (a == "--max-instrs")
            opt.maxInstrs = std::strtoull(next(), nullptr, 0);
        else if (a == "--trace-cap")
            opt.traceCap = std::strtoull(next(), nullptr, 0);
        else if (a == "--difftest")
            opt.difftest = true;
        else if (a == "--archdb")
            opt.archdb = true;
        else if (a == "--out")
            opt.out = next();
        else if (a == "--chrome")
            opt.chromeOut = next();
        else if (!a.empty() && a[0] != '-')
            positional.push_back(a);
        else {
            usage();
            return 2;
        }
    }

    if (cmd == "record")
        return cmdRecord(opt);
    if (cmd == "report" && positional.size() == 1)
        return cmdReport(positional[0]);
    if (cmd == "topdown" && positional.size() == 1)
        return cmdTopdown(positional[0]);
    if (cmd == "diff" && positional.size() == 2)
        return cmdDiff(positional[0], positional[1]);
    if (cmd == "chrome" && !positional.empty())
        return cmdChrome(positional[0],
                         positional.size() > 1 ? positional[1] : "");

    usage();
    return 2;
}
