#include "sample/engine.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "checkpoint/checkpoint.h"
#include "common/clock.h"
#include "iss/system.h"
#include "nemu/nemu.h"
#include "obs/collect.h"

namespace minjie::sample {

namespace {

/** Snapshot the whole SoC counter tree with bare "core0.*" keys. */
obs::CounterSnapshot
socSnapshot(xs::Soc &soc)
{
    obs::CounterGroup root;
    obs::collectSoc(root, soc);
    obs::CounterSnapshot s;
    root.flattenInto(s, "");
    return s;
}

} // namespace

SliceResult
runSlice(const PackReader &pack, size_t i, const SampleConfig &cfg)
{
    SliceResult res;
    if (i >= pack.count() || i == cfg.crashSliceForTest)
        return res;

    xs::Soc soc(cfg.coreCfg, 1, cfg.dramMb);
    if (cfg.warmupInsts > 0) {
        // Functional warmup: fast-forward on NEMU from the checkpoint,
        // then hand the advanced state to the detailed core. The
        // measurement point moves warmupInsts past the slice start.
        iss::System warm(cfg.dramMb);
        nemu::Nemu nemu(warm.bus, warm.dram, 0, 0);
        if (!pack.restoreInto(i, nemu.state(), warm.dram))
            return res;
        nemu.flushUopCache();
        nemu.setHaltFn([&] { return warm.simctrl.exited(); });
        nemu.run(cfg.warmupInsts);
        // The SoC borrows the same pack pages, then takes only the
        // pages NEMU touched and the architectural state; its devices
        // stay its own.
        if (!pack.restoreInto(i, soc.core(0).oracleState(),
                              soc.system().dram))
            return res;
        warm.dram.forEachAllocatedPage([&](Addr base, const uint8_t *data) {
            soc.system().dram.load(base, data, mem::PhysMem::PAGE_SIZE);
        });
        std::vector<uint8_t> arch;
        checkpoint::serializeArch(arch, nemu.state());
        if (!checkpoint::restoreArch(arch.data(), arch.size(),
                                     soc.core(0).oracleState()))
            return res;
    } else {
        if (!pack.restoreInto(i, soc.core(0).oracleState(),
                              soc.system().dram))
            return res;
    }

    auto before = socSnapshot(soc);
    soc.runUntilInstrs(cfg.measureInsts, cfg.maxCycles);
    res.counters = socSnapshot(soc).delta(before);
    res.cycles = soc.core(0).perf().cycles;
    res.instrs = soc.core(0).perf().instrs;
    res.ok = true;
    return res;
}

SampleReport
runSampled(const PackReader &pack, const SampleConfig &cfg)
{
    SampleReport rep;
    rep.weightDen = pack.weightDen();
    size_t n = pack.count();
    rep.slices.resize(n);

    Stopwatch sw;
    // Threads claim slice indices from one counter and each writes
    // only its own slot, so scheduling cannot change any result.
    std::atomic<size_t> next{0};
    auto drain = [&] {
        for (size_t i = next++; i < n; i = next++) {
            try {
                rep.slices[i] = runSlice(pack, i, cfg);
            } catch (...) {
                rep.slices[i] = SliceResult{}; // failed slice
            }
        }
    };
    size_t want = cfg.workers > 1 ? std::min<size_t>(cfg.workers, n) : 0;
    std::vector<std::thread> pool;
    pool.reserve(want); // emplace_back below then throws only on spawn
    try {
        while (pool.size() < want)
            pool.emplace_back(drain);
    } catch (const std::exception &) {
        // Thread pressure: the threads that did start take every
        // slice, or this thread does when none started; each slice is
        // deterministic, so the results are the same.
    }
    for (auto &t : pool)
        t.join();
    drain(); // what no thread took: workers <= 1, or spawn failed
    rep.wallSec = sw.elapsedSec();

    // Deterministic reduction: checkpoint order, exact integer
    // weights. Worker scheduling cannot reorder or change anything
    // below because results are indexed by slice.
    for (size_t i = 0; i < n; ++i) {
        const SliceResult &s = rep.slices[i];
        if (!s.ok) {
            ++rep.failures;
            continue;
        }
        uint64_t w = pack.weightNum(i);
        rep.weighted.mergeScaled(s.counters, w);
        rep.weightedCycles += w * s.cycles;
        rep.weightedInstrs += w * s.instrs;
    }
    rep.stack = obs::CpiStack::fromCounters(rep.weighted, "core0");
    return rep;
}

} // namespace minjie::sample
