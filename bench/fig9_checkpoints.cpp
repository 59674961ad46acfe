/**
 * @file
 * Figure 9 + Section III-D3: the architectural checkpoint flow.
 *
 * Demonstrates and measures: checkpoint generation speed with NEMU
 * (paper: >300 MIPS; CoreMark-PRO checkpoints), restore into the
 * XIANGSHAN cycle model, and resume-equivalence of the format.
 *
 * Flags:
 *   --smoke       profiling gate (ctest label "bench-smoke"): BBV
 *                 profiling on NEMU's chained fast path must stay
 *                 >= 3x the step path, geomean over a fixed proxy
 *                 subset of each proxy's best paired ratio of 5
 *                 interleaved reps; exit 1 otherwise
 *   --json FILE   write the smoke measurements as JSON (CI uploads
 *                 this as BENCH_checkpoint.json)
 */

#include "bench_util.h"

#include <cstring>
#include <fstream>

#include "checkpoint/generator.h"
#include "common/jsonw.h"
#include "iss/system.h"
#include "nemu/nemu.h"

using namespace bench;
using namespace minjie;
using namespace minjie::checkpoint;

namespace {

/** BBV-profiling MIPS of @p prog: generateCheckpoints' pass 1 on the
 *  chained engine (Nemu::run) or on the step path (Interp::run). */
double
profileMips(const wl::Program &prog, bool stepPath)
{
    iss::System sys(256);
    prog.loadInto(sys.dram);
    nemu::Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    BbvCollector bbv(50'000);
    nemu.setBlockHook([&](Addr pc, uint32_t len) { bbv.onBlock(pc, len); });
    Stopwatch sw;
    auto r = stepPath ? nemu.Interp::run(200'000'000)
                      : nemu.run(200'000'000);
    double sec = sw.elapsedSec();
    return sec > 0 ? static_cast<double>(r.executed) / sec / 1e6 : 0;
}

struct Row
{
    std::string workload;
    double fastMips = 0; ///< best of the reps
    double stepMips = 0;
    /// Best fast/step ratio over reps, each from a back-to-back pair:
    /// pairing cancels host frequency drift between the two runs.
    double pairRatio = 0;
};

int
runSmoke(const std::string &jsonFile)
{
    constexpr int REPS = 5;
    constexpr double MIN_RATIO = 3.0;
    constexpr uint64_t ITERS = 5'000;
    // Int and fp proxies of every behaviour class: pointer chasing
    // (mcf), branchy (gcc, sjeng), streaming fp (lbm, milc), mixed.
    const char *const names[] = {"401.bzip2", "403.gcc", "429.mcf",
                                 "458.sjeng", "433.milc", "470.lbm"};

    std::printf("=== fig9 smoke: BBV profiling, fast path vs step path "
                "===\n");
    std::printf("(%llu iterations per proxy, best paired ratio of %d; "
                "gate: geomean >= %.1fx)\n\n",
                static_cast<unsigned long long>(ITERS), REPS, MIN_RATIO);
    std::printf("%-12s %12s %12s %10s\n", "workload", "fast MIPS",
                "step MIPS", "fast/step");
    hr('-', 50);
    std::vector<Row> rows;
    for (const char *name : names) {
        const wl::ProxySpec *spec = nullptr;
        for (const auto *suite : {&wl::specIntSuite(), &wl::specFpSuite()})
            for (const auto &s : *suite)
                if (std::strcmp(s.name, name) == 0)
                    spec = &s;
        auto prog = wl::buildProxy(*spec, ITERS);
        Row row;
        row.workload = name;
        // Untimed warm-up absorbs first-touch allocation noise.
        (void)profileMips(prog, false);
        for (int r = 0; r < REPS; ++r) {
            double f = profileMips(prog, false);
            double s = profileMips(prog, true);
            row.fastMips = std::max(row.fastMips, f);
            row.stepMips = std::max(row.stepMips, s);
            if (s > 0)
                row.pairRatio = std::max(row.pairRatio, f / s);
        }
        std::printf("%-12s %12.1f %12.1f %9.2fx\n", name, row.fastMips,
                    row.stepMips, row.pairRatio);
        rows.push_back(std::move(row));
    }
    hr('-', 50);
    std::vector<double> ratios;
    for (const Row &r : rows)
        ratios.push_back(r.pairRatio);
    double g = geomean(ratios);
    std::printf("%-12s %35.2fx\n", "geomean", g);

    if (!jsonFile.empty()) {
        JsonWriter jw;
        jw.beginObject();
        jw.key("bench").value("fig9_checkpoints");
        jw.key("iterations").value(ITERS);
        jw.key("gate_min_speedup").value(MIN_RATIO);
        jw.key("geomean_speedup").value(g);
        jw.key("workloads").beginArray();
        for (const Row &r : rows) {
            jw.beginObject();
            jw.key("name").value(r.workload);
            jw.key("profile_mips_fast").value(r.fastMips);
            jw.key("profile_mips_step").value(r.stepMips);
            jw.key("speedup_paired").value(r.pairRatio);
            jw.endObject();
        }
        jw.endArray();
        jw.endObject();
        std::ofstream f(jsonFile);
        f << jw.str() << "\n";
        if (!f)
            std::fprintf(stderr, "fig9_checkpoints: cannot write %s\n",
                         jsonFile.c_str());
        else
            std::printf("JSON written to %s\n", jsonFile.c_str());
    }
    if (g < MIN_RATIO) {
        std::printf("\nFAIL: profiling speedup %.2fx < %.1fx gate\n", g,
                    MIN_RATIO);
        return 1;
    }
    std::printf("\nPASS: profiling speedup %.2fx >= %.1fx\n", g,
                MIN_RATIO);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string jsonFile;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonFile = argv[++i];
        else {
            std::fprintf(stderr, "usage: %s [--smoke] [--json FILE]\n",
                         argv[0]);
            return 2;
        }
    }
    if (smoke)
        return runSmoke(jsonFile);

    bool fast = fastMode();
    uint64_t iters = fast ? 300 : 5000;

    std::printf("=== Figure 9 / Section III-D3: RISC-V architectural "
                "checkpoints ===\n\n");

    // CoreMark(-PRO) stand-in, as in the paper's artifact.
    auto prog = wl::coremarkProxy(iters);
    auto gen = generateCheckpoints(prog, fast ? 20'000 : 200'000, 8,
                                   200'000'000);

    std::printf("workload: %s (%llu instructions)\n", prog.name.c_str(),
                static_cast<unsigned long long>(gen.totalInsts));
    std::printf("checkpoints generated: %zu (paper artifact: 8)\n",
                gen.checkpoints.size());
    std::printf("BBV profiling speed:   %7.1f MIPS\n", gen.profileMips);
    std::printf("generation speed:      %7.1f MIPS (paper: >300 MIPS)\n",
                gen.generateMips);

    std::printf("\n%-6s %14s %10s %12s\n", "ckpt", "inst offset",
                "weight", "pages");
    hr('-', 48);
    for (size_t i = 0; i < gen.checkpoints.size(); ++i) {
        const auto &cp = gen.checkpoints[i];
        std::printf("%-6zu %14llu %9.1f%% %12zu\n", i,
                    static_cast<unsigned long long>(cp.instCount),
                    cp.weight * 100.0, cp.pages.size());
    }
    std::printf("distinct pages pooled: %zu\n",
                gen.checkpoints.pool().size());

    // Restore-and-run on XIANGSHAN (the "XIANGSHAN is able to restore
    // and run the generated RISC-V checkpoint" artifact step).
    std::printf("\nrestoring checkpoint 0 into the XIANGSHAN cycle "
                "model...\n");
    xs::Soc soc(xs::CoreConfig::nh());
    if (!gen.checkpoints.empty() &&
        restore(gen.checkpoints, 0, soc.core(0).oracleState(),
                soc.system().dram)) {
        auto r = soc.runUntilInstrs(fast ? 5'000 : 50'000, 100'000'000);
        std::printf("ran %llu instructions in %llu cycles (ipc %.3f): "
                    "%s\n",
                    static_cast<unsigned long long>(
                        soc.core(0).perf().instrs),
                    static_cast<unsigned long long>(
                        soc.core(0).perf().cycles),
                    soc.core(0).perf().ipc(),
                    r.completed ? "OK" : "FAILED");
    } else {
        std::printf("restore FAILED\n");
        return 1;
    }
    return 0;
}
