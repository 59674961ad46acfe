/**
 * @file
 * The benchmark's workloads, built from the simulator's public API:
 * inputs derived from the seed, the simulator set-up, and one "unit" of
 * each workload's timed work. Every call into a simulator module is
 * wrapped in a span named "<module>.<call>" so the traced run can split
 * host time by module; with a disabled tracer the spans cost a branch.
 */

#ifndef MINJIE_PERFBENCH_FLOWS_H
#define MINJIE_PERFBENCH_FLOWS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "checkpoint/generator.h"
#include "difftest/difftest.h"
#include "lightsss/lightsss.h"
#include "sample/engine.h"
#include "spans.h"
#include "workload/programs.h"
#include "xiangshan/soc.h"

namespace perfbench {

namespace mj = minjie;
namespace wl = minjie::workload;

/** Operations attempted and failed, per the workload's definition. */
struct Ops
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    count(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};
using Metrics = std::vector<Metric>;

/** What one unit of timed work did. */
struct UnitResult
{
    double sec = 0;      ///< host seconds of the timed part
    double instrs = 0;   ///< simulated instructions it covered
};

// ---- sizes: fixed here so every commit measures the same work ----

/**
 * Each proxy is built in VARIANTS layouts, from seeds derived from the
 * workload seed, so one seed's draw of body groups moves a unit's cost
 * less than a single layout per proxy would.
 */

/** cosim: SPEC proxies run back to back, as in the ROADMAP baseline. */
inline const char *const COSIM_PROXIES[] = {"429.mcf", "403.gcc",
                                            "456.hmmer"};
constexpr uint64_t COSIM_ITERS = 1000;
constexpr unsigned COSIM_VARIANTS = 8;

/** sampled: large-footprint, branchy and fp proxies. */
inline const char *const SAMPLED_PROXIES[] = {"429.mcf", "403.gcc",
                                              "470.lbm", "458.sjeng"};
constexpr uint64_t SAMPLED_ITERS = 4000;
constexpr unsigned SAMPLED_VARIANTS = 4;
constexpr uint64_t SAMPLED_INTERVAL = 50'000; ///< = measure window
constexpr unsigned SAMPLED_MAX_K = 4;

/** campaign: seeds per runCampaign call, DiffTest share. */
constexpr uint64_t CAMPAIGN_SEEDS = 2000;
constexpr unsigned CAMPAIGN_DIFFTEST_PCT = 20;

/** Worker count for the forked/threaded flows (capped at nproc). */
unsigned benchWorkers();

/** The one core configuration every workload runs (NH). */
mj::xs::CoreConfig benchCore();

/** Build @p variants layouts of each named SPEC proxy from @p seed. */
std::vector<wl::Program> buildProxies(const std::vector<std::string> &names,
                                      uint64_t iters, uint64_t seed,
                                      unsigned variants, Tracer &tr);

// ---- cosim: xs::Core + DiffTest (all rules) + LightSSS ----

/** A DUT with its DiffTest checker and snapshot driver, ready to run. */
struct CosimRig
{
    std::unique_ptr<mj::xs::Soc> soc;
    std::unique_ptr<mj::difftest::DiffTest> dt; ///< null: DUT alone
    std::unique_ptr<mj::lightsss::LightSSS> sss;
    /** DiffTest ctor + loadRefMemory + resetRefs, host seconds. */
    double difftestConstructSec = 0;
};

struct CosimRigOptions
{
    bool difftest = true;
    bool snapshots = true; ///< LightSSS at its default interval
    bool scoreboard = true;
};

CosimRig makeCosimRig(const wl::Program &prog, const CosimRigOptions &o,
                      Tracer &tr);

struct CosimRun
{
    bool ok = false; ///< DiffTest ok, run completed, exit code 0
    uint64_t instrs = 0;
    uint64_t cycles = 0;
    double sec = 0;
    std::vector<double> forkMs; ///< ticks that forked (traced only)
};

/**
 * The co-simulation loop of `minjie-sim --difftest --lightsss`: tick
 * the snapshot driver, the CLINT and every core until the program
 * drains or DiffTest flags a mismatch.
 */
CosimRun runCosim(CosimRig &rig, Tracer &tr);

// ---- sampled: profile -> checkpoints -> pack -> fork-fanout slices ----

mj::sample::SampleConfig sampleConfig(unsigned workers);

struct SampledRun
{
    mj::checkpoint::GenResult gen;
    mj::sample::PackReader pack;
    mj::sample::SampleReport rep;
    double generateSec = 0;
    double packSec = 0;
    double runSec = 0;
    size_t packBytes = 0;
};

/** generateCheckpoints -> packFromGen -> runSampled for one program. */
SampledRun runSampledFlow(const wl::Program &prog, unsigned workers,
                          Tracer &tr);

/** A slice counts as done when it is ok and its stack sums exactly. */
bool sliceOk(const mj::sample::SliceResult &s);

/**
 * IPC of a full detailed run of each program (DiffTest off), the
 * accuracy reference for sampled IPC. Cached under @p cacheDir keyed
 * by a content hash of this executable, the core configuration and the
 * program bytes; misses are computed on parallel threads.
 */
std::vector<double> fullRunIpc(const std::vector<wl::Program> &progs,
                               const std::string &cacheDir);

/** Mean |sampled - full| / full over the programs, in percent. */
double ipcErrorPct(const std::vector<double> &sampled,
                   const std::vector<double> &full);

// ---- campaign: seeded random programs, lockstep + DiffTest jobs ----

mj::campaign::CampaignConfig campaignConfig(uint64_t seed, uint64_t seeds,
                                            unsigned workers);

/** Generate the random program of every job in the range, as each job
 *  does; returns the segments built. */
size_t buildCampaignPrograms(const mj::campaign::CampaignConfig &cfg,
                             Tracer &tr);

/** Instructions a campaign checked (lockstep jobs run two engines). */
double campaignInstrs(const mj::campaign::CampaignReport &rep);

// ---- the traced run's layer ledger ----

/**
 * Run a fixed, seed-derived pass over every layer with spans around
 * each public call, and append the per-layer metrics to @p m. Counts
 * its operations into @p ops; clears @p correct when a cross-check
 * (worker-count invariance, jobs == seeds) fails.
 */
void runLedger(uint64_t seed, unsigned workers, const std::string &outDir,
               Tracer &tr, Metrics &m, Ops &ops, bool &correct);

} // namespace perfbench

#endif // MINJIE_PERFBENCH_FLOWS_H
