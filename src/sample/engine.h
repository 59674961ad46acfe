/**
 * @file
 * Threaded sampled-simulation engine (paper Section III-D3).
 *
 * Each SimPoint slice restores a checkpoint from the shared read-only
 * pack, optionally fast-forwards `warmupInsts` functionally on NEMU,
 * then measures a detailed window on the XIANGSHAN core. Slices are
 * independent, so the engine runs them on a pool of `workers` threads
 * in one process. Each slice builds its own SoC and borrows the pack's
 * pages instead of copying the memory image, copying in only the pages
 * its window touches. A slice that fails (or throws) is reported as a
 * failed slice, never as a lost run.
 *
 * Reduction is deterministic by construction: results are indexed by
 * slice and merged in checkpoint order with exact integer SimPoint
 * weights (weightNum over the pack's common denominator), so weighted
 * IPC and the weighted top-down stack are byte-identical for any
 * worker count — the same invariance contract the campaign engine
 * gives, extended to performance sampling.
 */

#ifndef MINJIE_SAMPLE_ENGINE_H
#define MINJIE_SAMPLE_ENGINE_H

#include <cstdint>
#include <vector>

#include "obs/counter.h"
#include "obs/topdown.h"
#include "sample/store.h"
#include "xiangshan/soc.h"

namespace minjie::sample {

struct SampleConfig
{
    /** Worker threads; <= 1 runs every slice on the calling thread. */
    unsigned workers = 1;
    /** Functional-warmup instructions on NEMU before the detailed
     *  window (moves the measurement point past the checkpoint). */
    uint64_t warmupInsts = 0;
    /** Detailed-core measurement window, in committed instructions. */
    uint64_t measureInsts = 20'000;
    /** Per-slice detailed-cycle budget. */
    Cycle maxCycles = 20'000'000;
    /** Functional DRAM size for both warmup and detail. */
    uint64_t dramMb = 256;
    xs::CoreConfig coreCfg = xs::CoreConfig::nh();

    /** Test hook: the slice with this index fails without a result,
     *  so tests can pin that a failed slice costs only itself. */
    size_t crashSliceForTest = SIZE_MAX;
};

/** One evaluated slice (measurement window only, warmup excluded). */
struct SliceResult
{
    bool ok = false;
    uint64_t cycles = 0;
    uint64_t instrs = 0;
    /** Window delta of the full SoC tree ("core0.*", "mem.*"). */
    obs::CounterSnapshot counters;
};

struct SampleReport
{
    std::vector<SliceResult> slices;
    /** Sum of slice counters scaled by integer weight numerators. */
    obs::CounterSnapshot weighted;
    uint64_t weightDen = 0;
    uint64_t weightedCycles = 0; ///< sum weightNum[i] * cycles[i]
    uint64_t weightedInstrs = 0; ///< sum weightNum[i] * instrs[i]
    /** Top-down stack rebuilt from the weighted counters; the bucket
     *  exact-sum invariant survives the weighting (linearity). */
    obs::CpiStack stack;
    unsigned failures = 0;
    /** Wall-clock over all slices (reporting only). */
    double wallSec = 0;

    bool allOk() const { return failures == 0; }

    double
    weightedIpc() const
    {
        return weightedCycles
                   ? static_cast<double>(weightedInstrs) /
                         static_cast<double>(weightedCycles)
                   : 0.0;
    }

    double
    weightedCpi() const
    {
        return weightedInstrs
                   ? static_cast<double>(weightedCycles) /
                         static_cast<double>(weightedInstrs)
                   : 0.0;
    }
};

/** Evaluate slice @p i in the calling process. */
SliceResult runSlice(const PackReader &pack, size_t i,
                     const SampleConfig &cfg);

/** Evaluate every slice of @p pack on `cfg.workers` threads and
 *  reduce in checkpoint order. */
SampleReport runSampled(const PackReader &pack,
                        const SampleConfig &cfg);

} // namespace minjie::sample

#endif // MINJIE_SAMPLE_ENGINE_H
