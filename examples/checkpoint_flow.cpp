/**
 * @file
 * The Section III-D performance-evaluation workflow:
 *
 *   profile (NEMU + BBV)  ->  SimPoint clustering  ->  checkpoints  ->
 *   restore each into a XIANGSHAN instance  ->  weighted CPI estimate,
 *
 * compared against the full-program cycle simulation (the paper's RTL
 * simulation deviates 5-10% from hardware; our estimate's error is
 * dominated by micro-architectural warmup, which the paper names as
 * future work).
 *
 * Build & run:  ./build/examples/checkpoint_flow
 */

#include <cstdio>

#include "checkpoint/generator.h"
#include "xiangshan/soc.h"

using namespace minjie;
using namespace minjie::checkpoint;
namespace wl = minjie::workload;

int
main()
{
    auto prog = wl::buildProxy(wl::specIntSuite()[4], 4000); // hmmer
    std::printf("workload: %s proxy\n\n", prog.name.c_str());

    // ---- full-program reference measurement ----
    std::printf("[1/3] full cycle-model run...\n");
    xs::Soc full(xs::CoreConfig::nh());
    prog.loadInto(full.system().dram);
    full.setEntry(prog.entry);
    auto r = full.run(100'000'000);
    double fullIpc = full.core(0).perf().ipc();
    std::printf("      %llu instructions, ipc %.3f%s\n",
                static_cast<unsigned long long>(full.core(0).perf().instrs),
                fullIpc, r.completed ? "" : " (cycle limit)");

    // ---- checkpoint generation ----
    std::printf("[2/3] profiling + SimPoint + checkpoint generation...\n");
    auto gen = generateCheckpoints(prog, 100'000, 6, 100'000'000);
    std::printf("      %llu instructions profiled at %.0f MIPS; "
                "%zu checkpoints generated at %.0f MIPS\n",
                static_cast<unsigned long long>(gen.totalInsts),
                gen.profileMips, gen.checkpoints.size(),
                gen.generateMips);

    // ---- parallel-style estimation (sequential here; the paper
    // spreads ~1K checkpoints over five 128-core servers) ----
    std::printf("[3/3] restoring checkpoints into XIANGSHAN...\n");
    std::vector<double> cpis, weights;
    for (size_t i = 0; i < gen.checkpoints.size(); ++i) {
        const auto &cp = gen.checkpoints[i];
        xs::Soc soc(xs::CoreConfig::nh());
        if (!restore(gen.checkpoints, i, soc.core(0).oracleState(),
                     soc.system().dram)) {
            std::printf("      checkpoint %zu: restore FAILED\n", i);
            return 1;
        }
        // Warmup then measure (paper: 20M + 20M; scaled down here).
        soc.runUntilInstrs(30'000, 50'000'000);
        Cycle warmCycles = soc.core(0).perf().cycles;
        InstCount warmInstrs = soc.core(0).perf().instrs;
        soc.runUntilInstrs(warmInstrs + 50'000, 100'000'000);
        double cpi =
            static_cast<double>(soc.core(0).perf().cycles - warmCycles) /
            static_cast<double>(std::max<InstCount>(
                1, soc.core(0).perf().instrs - warmInstrs));
        cpis.push_back(cpi);
        weights.push_back(cp.weight);
        std::printf("      checkpoint %zu @%9llu insts  weight %5.1f%%  "
                    "cpi %.3f\n",
                    i, static_cast<unsigned long long>(cp.instCount),
                    cp.weight * 100, cpi);
    }

    double estCpi = weightedCpi(cpis, weights);
    double estIpc = estCpi > 0 ? 1.0 / estCpi : 0;
    std::printf("\nweighted estimate: ipc %.3f   full run: ipc %.3f   "
                "deviation: %+.1f%%\n",
                estIpc, fullIpc,
                fullIpc > 0 ? 100.0 * (estIpc / fullIpc - 1) : 0.0);
    std::printf("(paper: 5-10%% deviation against silicon; warmup "
                "dominates the error)\n");
    return 0;
}
