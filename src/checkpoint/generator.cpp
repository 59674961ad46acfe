#include "checkpoint/generator.h"

#include <algorithm>

#include "common/clock.h"
#include "iss/system.h"
#include "nemu/nemu.h"

namespace minjie::checkpoint {

GenResult
generateCheckpoints(const workload::Program &prog,
                    InstCount intervalInsts, unsigned maxK,
                    InstCount maxInsts)
{
    GenResult out;

    // ---- pass 1: profile with BBV collection (chained NEMU) ----
    BbvCollector bbv(intervalInsts);
    {
        iss::System sys(256);
        prog.loadInto(sys.dram);
        nemu::Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
        nemu.setHaltFn([&] { return sys.simctrl.exited(); });
        nemu.setBlockHook(
            [&](Addr pc, uint32_t len) { bbv.onBlock(pc, len); });

        Stopwatch sw;
        auto r = nemu.run(maxInsts);
        bbv.finish();
        out.totalInsts = r.executed;
        double sec = sw.elapsedSec();
        out.profileMips =
            sec > 0 ? static_cast<double>(r.executed) / sec / 1e6 : 0;
    }

    // ---- SimPoint clustering ----
    out.simpoints = simpoint(bbv.intervals(), maxK);

    // Short-program edge: a run that retires fewer than intervalInsts
    // instructions after its last control transfer (or none at all)
    // reports no complete BBV interval, and clustering nothing would
    // return an empty GenResult. Fall back to a single whole-run
    // checkpoint of weight 1.0 — interval 0 makes pass 2 snapshot the
    // initial state, so restoring it replays the entire execution.
    if (out.simpoints.intervals.empty()) {
        out.simpoints.intervals = {0};
        out.simpoints.weights = {1.0};
        out.simpoints.assignment = {0};
    }

    // ---- pass 2: re-run fast and snapshot at interval boundaries ----
    // Each snapshot interns the live pages straight into the set's
    // shared pool; no standalone image is built.
    std::vector<std::pair<InstCount, size_t>> boundaries;
    for (size_t i = 0; i < out.simpoints.intervals.size(); ++i) {
        boundaries.push_back(
            {static_cast<InstCount>(out.simpoints.intervals[i]) *
                 intervalInsts,
             i});
    }
    std::sort(boundaries.begin(), boundaries.end());

    out.checkpoints.resize(out.simpoints.intervals.size());
    iss::System sys(256);
    prog.loadInto(sys.dram);
    nemu::Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });

    Stopwatch sw;
    InstCount executed = 0;
    for (const auto &[target, cpIdx] : boundaries) {
        if (target > executed) {
            auto r = nemu.run(target - executed);
            executed += r.executed;
        }
        out.checkpoints.capture(cpIdx, nemu.state(), sys.dram, executed);
        out.checkpoints[cpIdx].weight = out.simpoints.weights[cpIdx];
    }
    double sec = sw.elapsedSec();
    out.generateMips =
        sec > 0 ? static_cast<double>(executed) / sec / 1e6 : 0;
    return out;
}

} // namespace minjie::checkpoint
