/**
 * @file
 * Figure 12: SPEC CPU2006 scores of the XIANGSHAN generations across
 * evaluation platforms.
 *
 * The paper's series and headline numbers (SPEC/GHz):
 *   YQH-ASIC-DDR4-1600          int 7.03 / fp 7.00
 *   YQH-FPGA-90C-AMAT           int 6.87 / fp 7.23
 *   NH-2MBLLC-FPGA-250C-AMAT    (4MB is +8.9% int / +5.4% fp over this)
 *   NH-4MBLLC-FPGA-250C-AMAT    int 7.94 / fp 9.27
 *   RTL-sim DDR4-2400           YQH 7.67, NH 10.06
 *   GEM5-aligned model          ~7/GHz (~30% below NH; Section II-E)
 *
 * SPEC/GHz is proportional to IPC (the paper cites exactly this), so we
 * report IPC per benchmark and geomeans per configuration; the target
 * shape is the ordering and the ratios, not absolute values.
 */

#include "bench_util.h"

#include "checkpoint/generator.h"
#include "sample/engine.h"

using namespace bench;
using minjie::uarch::DramCfg;
using minjie::xs::CoreConfig;

namespace {

struct ConfigRow
{
    const char *name;
    CoreConfig cfg;
};

std::vector<ConfigRow>
makeConfigs()
{
    std::vector<ConfigRow> rows;

    {
        CoreConfig c = CoreConfig::yqh();
        c.mem.dram.mode = DramCfg::Mode::Ddr;
        c.mem.dram.ddrBase = 200; // DDR4-1600 at 1.3 GHz
        c.mem.dram.ddrRowHit = 130;
        rows.push_back({"YQH-ASIC-DDR4-1600", c});
    }
    {
        CoreConfig c = CoreConfig::yqh();
        c.mem.dram.mode = DramCfg::Mode::FixedAmat;
        c.mem.dram.amatCycles = 90;
        rows.push_back({"YQH-FPGA-90C-AMAT", c});
    }
    {
        CoreConfig c = CoreConfig::nh();
        c.mem.l3->sizeBytes = 2 * 1024 * 1024;
        c.mem.dram.mode = DramCfg::Mode::FixedAmat;
        c.mem.dram.amatCycles = 250;
        rows.push_back({"NH-2MBLLC-FPGA-250C", c});
    }
    {
        CoreConfig c = CoreConfig::nh();
        c.mem.l3->sizeBytes = 4 * 1024 * 1024;
        c.mem.dram.mode = DramCfg::Mode::FixedAmat;
        c.mem.dram.amatCycles = 250;
        rows.push_back({"NH-4MBLLC-FPGA-250C", c});
    }
    {
        CoreConfig c = CoreConfig::yqh();
        c.mem.dram.mode = DramCfg::Mode::Ddr;
        c.mem.dram.ddrBase = 160; // DDR4-2400 at 1.3 GHz
        c.mem.dram.ddrRowHit = 105;
        rows.push_back({"YQH-RTLSIM-DDR4-2400", c});
    }
    {
        CoreConfig c = CoreConfig::nh(); // 6MB LLC
        c.mem.dram.mode = DramCfg::Mode::Ddr;
        c.mem.dram.ddrBase = 170; // DDR4-2400 at 2 GHz
        c.mem.dram.ddrRowHit = 110;
        rows.push_back({"NH-RTLSIM-DDR4-2400", c});
    }
    {
        CoreConfig c = CoreConfig::gem5ish();
        c.mem.dram.mode = DramCfg::Mode::Ddr;
        c.mem.dram.ddrBase = 170;
        c.mem.dram.ddrRowHit = 110;
        rows.push_back({"GEM5ish-DDR4-2400", c});
    }
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    bool fast = fastMode();
    // --sample N: evaluate each (benchmark, config) cell with the
    // threaded sampled engine over N workers instead of one full
    // detailed run — the paper's Fig. 12 methodology (profile once,
    // run SimPoint slices per configuration).
    unsigned sampleWorkers = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--sample" && i + 1 < argc)
            sampleWorkers = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 0));
    }
    // Memory-bound benchmarks need enough instructions for their
    // ~2.6MB chase footprint to be re-walked (LLC capacity effects);
    // cache-resident ones settle much sooner.
    auto budgetFor = [&](const wl::ProxySpec &spec) -> InstCount {
        InstCount b = spec.wsKB >= 4096 ? 1'500'000 : 400'000;
        return fast ? b / 8 : b;
    };
    uint64_t iterations = 10'000'000; // instruction budget dominates

    auto configs = makeConfigs();
    auto intSuite = wl::specIntSuite();
    auto fpSuite = wl::specFpSuite();
    if (fast) {
        intSuite.resize(3);
        fpSuite.resize(2);
    }

    std::printf("=== Figure 12: SPEC CPU2006 proxy scores (IPC; "
                "SPEC/GHz is proportional to IPC) ===\n\n");

    std::vector<std::vector<double>> intIpc(configs.size());
    std::vector<std::vector<double>> fpIpc(configs.size());

    auto runSuite = [&](const char *title,
                        const std::vector<wl::ProxySpec> &suite,
                        std::vector<std::vector<double>> &out) {
        std::printf("%s\n%-18s", title, "benchmark");
        for (const auto &c : configs)
            std::printf(" %*s", 20, c.name);
        std::printf("\n");
        hr('-', 18 + 21 * static_cast<int>(configs.size()));
        for (const auto &spec : suite) {
            std::printf("%-18s", spec.name);
            std::fflush(stdout);
            auto prog = wl::buildProxy(spec, iterations);
            InstCount budget = budgetFor(spec);

            // Sampled mode: one profiling pass per benchmark, then
            // every configuration evaluates the same checkpoint pack.
            minjie::sample::PackReader pack;
            if (sampleWorkers > 0) {
                auto gen = minjie::checkpoint::generateCheckpoints(
                    prog, budget / 5, 3, budget);
                pack.openMemory(minjie::sample::packFromGen(gen));
            }
            for (size_t i = 0; i < configs.size(); ++i) {
                double ipc;
                if (sampleWorkers > 0 && pack.valid()) {
                    minjie::sample::SampleConfig scfg;
                    scfg.workers = sampleWorkers;
                    scfg.warmupInsts = budget / 20;
                    scfg.measureInsts = budget / 10;
                    scfg.coreCfg = configs[i].cfg;
                    ipc = minjie::sample::runSampled(pack, scfg)
                              .weightedIpc();
                } else {
                    ipc = measureIpc(configs[i].cfg, prog, budget);
                }
                out[i].push_back(ipc);
                std::printf(" %20.3f", ipc);
                std::fflush(stdout);
            }
            std::printf("\n");
        }
        std::printf("%-18s", "geomean");
        for (size_t i = 0; i < configs.size(); ++i)
            std::printf(" %20.3f", geomean(out[i]));
        std::printf("\n\n");
    };

    runSuite("SPECint 2006 proxies:", intSuite, intIpc);
    runSuite("SPECfp 2006 proxies:", fpSuite, fpIpc);

    // ---- the paper's headline comparisons ----
    auto find = [&](const char *name) -> int {
        for (size_t i = 0; i < configs.size(); ++i)
            if (std::string(configs[i].name) == name)
                return static_cast<int>(i);
        return -1;
    };
    int yqhDdr = find("YQH-RTLSIM-DDR4-2400");
    int nhDdr = find("NH-RTLSIM-DDR4-2400");
    int nh2 = find("NH-2MBLLC-FPGA-250C");
    int nh4 = find("NH-4MBLLC-FPGA-250C");
    int gem5 = find("GEM5ish-DDR4-2400");

    std::printf("=== headline ratios (paper values in parentheses) "
                "===\n");
    if (yqhDdr >= 0 && nhDdr >= 0) {
        double gInt = geomean(intIpc[nhDdr]) / geomean(intIpc[yqhDdr]);
        double gFp = geomean(fpIpc[nhDdr]) / geomean(fpIpc[yqhDdr]);
        std::printf("NH vs YQH (RTL-sim):   int %.2fx fp %.2fx  "
                    "(paper: 10.06/7.67 = 1.31x overall)\n",
                    gInt, gFp);
    }
    if (nh2 >= 0 && nh4 >= 0) {
        double dInt = 100.0 * (geomean(intIpc[nh4]) /
                                   geomean(intIpc[nh2]) - 1.0);
        double dFp = 100.0 * (geomean(fpIpc[nh4]) /
                                  geomean(fpIpc[nh2]) - 1.0);
        std::printf("NH 4MB vs 2MB LLC:     int %+.1f%% fp %+.1f%%  "
                    "(paper: +8.9%% int, +5.4%% fp)\n",
                    dInt, dFp);
    }
    if (gem5 >= 0 && nhDdr >= 0) {
        double g = 100.0 * (1.0 - geomean(intIpc[gem5]) /
                                      geomean(intIpc[nhDdr]));
        std::printf("GEM5ish below NH:      int -%.1f%%  (paper: ~30%% "
                    "less than XIANGSHAN)\n",
                    g);
    }
    return 0;
}
