#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "nemu/nemu.h"
#include "iss/system.h"
#include "workload/programs.h"

namespace {

using namespace minjie;
using namespace minjie::iss;
using minjie::nemu::Nemu;
namespace wl = minjie::workload;

TEST(Nemu, SumProgramFastPath)
{
    System sys(32);
    auto prog = wl::sumProgram(1000);
    prog.loadInto(sys.dram);
    Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    auto r = nemu.run(1'000'000);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(sys.simctrl.exitCode(), 0u);
    EXPECT_GT(r.executed, 3000u);
    EXPECT_LT(r.executed, 3200u);
    // The loop should be served from the uop cache, not retranslated.
    EXPECT_LT(nemu.stats().translations, 100u);
}

TEST(Nemu, InstretMatchesExecuted)
{
    System sys(32);
    auto prog = wl::sumProgram(123);
    prog.loadInto(sys.dram);
    Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    auto r = nemu.run(100'000);
    EXPECT_EQ(nemu.state().instret, r.executed);
    EXPECT_EQ(nemu.state().csr.minstret, r.executed);
}

TEST(Nemu, MatchesSpikeOnRandomPrograms)
{
    for (int seed = 0; seed < 20; ++seed) {
        Rng rng(7000 + seed);
        auto prog = wl::randomProgram(rng, 300, /*withFp=*/true);

        System sysA(32), sysB(32);
        prog.loadInto(sysA.dram);
        prog.loadInto(sysB.dram);

        Nemu nemu(sysA.bus, sysA.dram, 0, prog.entry);
        nemu.setHaltFn([&] { return sysA.simctrl.exited(); });
        SpikeInterp spike(sysB.bus, 0, prog.entry);
        spike.setHaltFn([&] { return sysB.simctrl.exited(); });

        auto ra = nemu.run(2'000'000);
        auto rb = spike.run(2'000'000);
        ASSERT_TRUE(ra.halted) << "seed " << seed;
        ASSERT_TRUE(rb.halted) << "seed " << seed;

        const auto &a = nemu.state();
        const auto &b = spike.state();
        for (int i = 0; i < 32; ++i) {
            ASSERT_EQ(a.x[i], b.x[i]) << "x" << i << " seed " << seed;
            ASSERT_EQ(a.f[i], b.f[i]) << "f" << i << " seed " << seed;
        }
        ASSERT_EQ(a.csr.fflags, b.csr.fflags) << "seed " << seed;
        for (unsigned off = 0; off < 4096; off += 8) {
            uint64_t va, vb;
            sysA.bus.read(0x80100000 + off, 8, va);
            sysB.bus.read(0x80100000 + off, 8, vb);
            ASSERT_EQ(va, vb) << "mem off " << off << " seed " << seed;
        }
    }
}

TEST(Nemu, MatchesSpikeOnProxyBenchmark)
{
    auto prog = wl::buildProxy(wl::specIntSuite()[2], 50); // mcf proxy
    System sysA(128), sysB(128);
    prog.loadInto(sysA.dram);
    prog.loadInto(sysB.dram);

    Nemu nemu(sysA.bus, sysA.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sysA.simctrl.exited(); });
    SpikeInterp spike(sysB.bus, 0, prog.entry);
    spike.setHaltFn([&] { return sysB.simctrl.exited(); });

    auto ra = nemu.run(50'000'000);
    auto rb = spike.run(50'000'000);
    ASSERT_TRUE(ra.halted);
    ASSERT_TRUE(rb.halted);
    EXPECT_EQ(ra.executed, rb.executed);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(nemu.state().x[i], spike.state().x[i]) << "x" << i;
}

TEST(Nemu, StepPathMatchesFastPath)
{
    auto prog = wl::sumProgram(500);
    System sysA(32), sysB(32);
    prog.loadInto(sysA.dram);
    prog.loadInto(sysB.dram);

    Nemu fast(sysA.bus, sysA.dram, 0, prog.entry);
    fast.setHaltFn([&] { return sysA.simctrl.exited(); });
    Nemu stepper(sysB.bus, sysB.dram, 0, prog.entry);
    stepper.setHaltFn([&] { return sysB.simctrl.exited(); });

    auto ra = fast.run(100'000);
    auto rb = stepper.Interp::run(100'000); // step-by-step path
    ASSERT_TRUE(ra.halted);
    ASSERT_TRUE(rb.halted);
    EXPECT_EQ(ra.executed, rb.executed);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(fast.state().x[i], stepper.state().x[i]) << "x" << i;
}

/**
 * A loop whose every iteration calls unmapped 0x1000: the fetch faults
 * and the handler resumes at the return address, so each iteration
 * retires one faulting fetch besides its own instructions.
 */
wl::Program
fetchFaultProgram(unsigned iterations)
{
    wl::Asm a(0x80000000);
    wl::Label loop = a.newLabel();
    a.li(wl::t0, 0x80001000);
    a.csr(isa::Op::Csrrw, wl::zero, isa::CSR_MTVEC, wl::t0);
    a.li(wl::s0, iterations);
    a.li(wl::s1, 0x1000); // no device or memory here
    a.bind(loop);
    a.itype(isa::Op::Jalr, wl::ra, wl::s1, 0);
    a.itype(isa::Op::Addi, wl::s0, wl::s0, -1);
    a.branch(isa::Op::Bne, wl::s0, wl::zero, loop);
    a.exit(0);
    while (a.here() < 0x80001000)
        a.nop();
    a.csr(isa::Op::Csrrw, wl::zero, isa::CSR_MEPC, wl::ra);
    a.itype(isa::Op::Mret, 0, 0, 0);

    wl::Program prog;
    prog.entry = a.base();
    prog.segments.push_back(a.finish());
    return prog;
}

/** pc after every single-instruction run() until the program exits. */
template <typename Engine>
std::vector<Addr>
pcTrace(Engine &e, System &sys, bool baseRun)
{
    std::vector<Addr> pcs;
    for (int i = 0; i < 10'000 && !sys.simctrl.exited(); ++i) {
        auto r = baseRun ? e.Interp::run(1) : e.run(1);
        EXPECT_EQ(r.executed, 1u);
        pcs.push_back(e.state().pc);
    }
    return pcs;
}

TEST(Nemu, FetchFaultCountsAsOneStep)
{
    auto prog = fetchFaultProgram(50);
    auto fresh = [&](System &sys) {
        prog.loadInto(sys.dram);
        return std::make_unique<Nemu>(sys.bus, sys.dram, 0, prog.entry);
    };

    // Reference: the step path through Interp::run.
    System sysRef(32);
    auto ref = fresh(sysRef);
    ref->setHaltFn([&] { return sysRef.simctrl.exited(); });
    auto rr = ref->Interp::run(100'000);
    ASSERT_TRUE(rr.halted);
    EXPECT_EQ(rr.executed, 313u); // 263 instructions + 50 faults
    EXPECT_EQ(ref->state().instret, rr.executed);

    for (bool chain : {true, false}) {
        SCOPED_TRACE(chain ? "chained" : "unchained");
        for (InstCount n : {InstCount{100'000}, InstCount{7}}) {
            System sys(32);
            auto nemu = fresh(sys);
            nemu->setChainingEnabled(chain);
            nemu->setHaltFn([&] { return sys.simctrl.exited(); });
            InstCount executed = 0;
            while (!sys.simctrl.exited() && executed < 100'000)
                executed += nemu->run(n).executed;
            EXPECT_EQ(executed, rr.executed) << "run(" << n << ")";
            EXPECT_EQ(nemu->state().instret, rr.executed);
            EXPECT_EQ(nemu->state().csr.minstret, rr.executed);
        }

        // run(1) stepping retires the same pc sequence as the step
        // path: the faulting fetch is its own step.
        System sysA(32), sysB(32);
        auto stepped = fresh(sysA);
        stepped->setChainingEnabled(chain);
        auto base = fresh(sysB);
        auto fast = pcTrace(*stepped, sysA, false);
        EXPECT_EQ(fast, pcTrace(*base, sysB, true));
        EXPECT_EQ(fast.size(), rr.executed);
        EXPECT_EQ(stepped->state().instret, rr.executed);
    }
}

TEST(Nemu, UopCacheFlushOnFenceI)
{
    System sys(32);
    auto prog = wl::sumProgram(10);
    prog.loadInto(sys.dram);
    Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    nemu.run(100'000);
    uint64_t flushesBefore = nemu.stats().flushes;
    nemu.flushUopCache();
    EXPECT_EQ(nemu.stats().flushes, flushesBefore + 1);
}

TEST(Nemu, BlockHookSeesBasicBlocks)
{
    System sys(32);
    auto prog = wl::sumProgram(100);
    prog.loadInto(sys.dram);
    Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });

    uint64_t blocks = 0, insts = 0;
    nemu.setBlockHook([&](Addr pc, uint32_t len) {
        ++blocks;
        insts += len;
        EXPECT_GT(len, 0u);
        EXPECT_GE(pc, DRAM_BASE);
    });
    auto r = nemu.Interp::run(100'000);
    ASSERT_TRUE(r.halted);
    // Every loop iteration ends in a branch: ~100 blocks.
    EXPECT_GT(blocks, 100u);
    // All counted instructions belong to some block (the final spin
    // block may be in flight when the run stops).
    EXPECT_LE(insts, r.executed);
    EXPECT_GT(insts, r.executed - 10);
}

TEST(Nemu, FastPathIsFasterThanSpike)
{
    auto prog = wl::coremarkProxy(300);
    // One complete run of @p engine on a fresh system: its wall time.
    auto timeRun = [&](bool nemuEngine) {
        System sys(64);
        prog.loadInto(sys.dram);
        std::unique_ptr<Interp> e;
        if (nemuEngine)
            e = std::make_unique<Nemu>(sys.bus, sys.dram, 0, prog.entry);
        else
            e = std::make_unique<SpikeInterp>(sys.bus, 0, prog.entry);
        e->setHaltFn([&] { return sys.simctrl.exited(); });
        Stopwatch sw;
        auto r = e->run(100'000'000);
        double sec = sw.elapsedSec();
        EXPECT_TRUE(r.halted);
        return sec;
    };
    // Untimed warm-up, then interleaved pairs: each pair's ratio
    // cancels host speed drift between its two runs.
    (void)timeRun(true);
    (void)timeRun(false);
    double best = 0;
    for (int rep = 0; rep < 5; ++rep) {
        double nemuTime = timeRun(true);
        double spikeTime = timeRun(false);
        if (nemuTime > 0)
            best = std::max(best, spikeTime / nemuTime);
    }
    // The paper reports ~5x; require at least 1.5x to keep the test
    // robust on slow CI machines.
    EXPECT_GT(best, 1.5) << "best spike/nemu time ratio of 5 pairs";
}

} // namespace
