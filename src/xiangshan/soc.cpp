#include "xiangshan/soc.h"

namespace minjie::xs {

Soc::Soc(const CoreConfig &cfg, unsigned nCores, uint64_t dramMb)
    : sys_(dramMb), cfg_(cfg)
{
    mem_ = std::make_unique<uarch::MemHierarchy>(cfg.mem, nCores);
    for (unsigned c = 0; c < nCores; ++c) {
        cores_.push_back(std::make_unique<Core>(cfg, c, sys_, *mem_,
                                                iss::DRAM_BASE));
        cores_.back()->setHaltFn([this] { return sys_.simctrl.exited(); });
    }
    for (auto &core : cores_)
        corePtrs_.push_back(core.get());
    if (nCores > 1)
        for (auto &core : cores_)
            core->setPeers(&corePtrs_);
}

void
Soc::reset()
{
    sys_.reset();
    mem_->reset();
    for (auto &core : cores_)
        core->reset(iss::DRAM_BASE);
}

void
Soc::setEntry(Addr entry)
{
    for (unsigned c = 0; c < cores_.size(); ++c)
        cores_[c]->oracleState().reset(entry, c);
}

Soc::RunResult
Soc::run(Cycle maxCycles)
{
    RunResult r;
    while (r.cycles < maxCycles) {
        sys_.clint.tick();
        bool allDone = true;
        Cycle consumed = 1;
        for (auto &core : cores_) {
            if (!core->done()) {
                consumed = std::max(consumed,
                                    core->tick(maxCycles - r.cycles));
                allDone = false;
            }
        }
        r.cycles += consumed;
        // Event-driven skip-ahead: the core fast-forwarded through
        // idle cycles the loop never saw; catch the CLINT up so mtime
        // matches the per-cycle reference path at the next fetch.
        if (consumed > 1)
            sys_.clint.tick(consumed - 1);
        if (allDone) {
            r.completed = true;
            break;
        }
    }
    return r;
}

Soc::RunResult
Soc::runUntilInstrs(InstCount instrs, Cycle maxCycles)
{
    RunResult r;
    while (r.cycles < maxCycles && cores_[0]->perf().instrs < instrs) {
        sys_.clint.tick();
        bool allDone = true;
        Cycle consumed = 1;
        for (auto &core : cores_) {
            if (!core->done()) {
                consumed = std::max(consumed,
                                    core->tick(maxCycles - r.cycles));
                allDone = false;
            }
        }
        r.cycles += consumed;
        if (consumed > 1)
            sys_.clint.tick(consumed - 1);
        if (allDone) {
            r.completed = true;
            break;
        }
    }
    if (cores_[0]->perf().instrs >= instrs)
        r.completed = true;
    return r;
}

double
Soc::ipc() const
{
    InstCount instrs = 0;
    Cycle cycles = 0;
    for (const auto &core : cores_) {
        instrs += core->perf().instrs;
        cycles = std::max(cycles, core->perf().cycles);
    }
    return cycles
               ? static_cast<double>(instrs) / static_cast<double>(cycles)
               : 0.0;
}

} // namespace minjie::xs
