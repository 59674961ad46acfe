/**
 * @file
 * The XIANGSHAN SoC: N cores sharing one functional system and one
 * coherent memory hierarchy, plus the run loop used by tests, benches
 * and the DiffTest co-simulation driver.
 */

#ifndef MINJIE_XIANGSHAN_SOC_H
#define MINJIE_XIANGSHAN_SOC_H

#include <memory>

#include "xiangshan/core.h"

namespace minjie::xs {

class Soc
{
  public:
    /**
     * @param cfg     per-core configuration (shared by all cores)
     * @param nCores  1 (YQH) or 2 (NH) in the paper's configurations
     * @param dramMb  functional DRAM size
     */
    Soc(const CoreConfig &cfg, unsigned nCores = 1, uint64_t dramMb = 256);

    iss::System &system() { return sys_; }
    uarch::MemHierarchy &mem() { return *mem_; }
    Core &core(unsigned i) { return *cores_[i]; }
    unsigned numCores() const { return static_cast<unsigned>(cores_.size()); }

    /** Set every core's reset pc (call before running). */
    void setEntry(Addr entry);

    /**
     * Return to the freshly constructed state: empty DRAM, power-on
     * devices, memory hierarchy and cores (reset pc DRAM_BASE; call
     * setEntry() after loading a program). Hooks stay attached, so a
     * DiffTest over this SoC resets alongside it.
     */
    void reset();

    struct RunResult
    {
        Cycle cycles = 0;
        bool completed = false; ///< all cores drained before the limit
    };

    /**
     * Run until every core drains (oracle halted via SimCtrl and the
     * pipeline is empty) or @p maxCycles elapse.
     */
    RunResult run(Cycle maxCycles);

    /**
     * Run until core 0 has committed @p instrs instructions (or the
     * program ends / @p maxCycles elapse). Used by the checkpoint-based
     * performance estimation flow (warmup + measurement windows).
     */
    RunResult runUntilInstrs(InstCount instrs, Cycle maxCycles);

    /** Aggregate IPC across cores. */
    double ipc() const;

  private:
    iss::System sys_;
    CoreConfig cfg_;
    std::unique_ptr<uarch::MemHierarchy> mem_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<Core *> corePtrs_; ///< peer list for LR/SC semantics
};

} // namespace minjie::xs

#endif // MINJIE_XIANGSHAN_SOC_H
