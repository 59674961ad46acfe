/**
 * @file
 * Checkpoint generation flow (paper Section III-D3): profile a program
 * with NEMU collecting BBVs, select representative intervals with
 * SimPoint, then re-run at full interpreter speed and snapshot a
 * checkpoint at each selected interval boundary into one shared,
 * content-deduplicated page pool.
 */

#ifndef MINJIE_CHECKPOINT_GENERATOR_H
#define MINJIE_CHECKPOINT_GENERATOR_H

#include "checkpoint/checkpoint.h"
#include "checkpoint/simpoint.h"
#include "workload/programs.h"

namespace minjie::checkpoint {

struct GenResult
{
    CheckpointSet checkpoints; ///< weights filled in
    SimPoints simpoints;
    InstCount totalInsts = 0;
    double profileMips = 0;  ///< pass-1 (BBV profiling) speed
    double generateMips = 0; ///< pass-2 (fast re-run) speed
};

/**
 * Generate SimPoint checkpoints for @p prog.
 *
 * @param intervalInsts instructions per SimPoint interval
 * @param maxK          maximum number of checkpoints
 * @param maxInsts      profiling budget (safety bound)
 */
GenResult generateCheckpoints(const workload::Program &prog,
                              InstCount intervalInsts, unsigned maxK,
                              InstCount maxInsts = 200'000'000);

} // namespace minjie::checkpoint

#endif // MINJIE_CHECKPOINT_GENERATOR_H
