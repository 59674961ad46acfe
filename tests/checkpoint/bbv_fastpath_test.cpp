/**
 * @file
 * BBV profiling on NEMU's chained fast path must report exactly the
 * blocks the step path reports: the same (pc, length) stream, hence
 * the same BBVs, instruction total and SimPoint picks. The step path
 * (Interp::run driving Nemu::stepOnce) is the oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "checkpoint/simpoint.h"
#include "iss/system.h"
#include "nemu/nemu.h"
#include "workload/asm.h"
#include "workload/programs.h"

namespace {

using namespace minjie;
using namespace minjie::checkpoint;
namespace wl = minjie::workload;
using isa::Op;

enum class Mode { Step, Fast, Unchained, Chunked };

struct Profile
{
    std::vector<std::pair<Addr, uint32_t>> blocks;
    InstCount executed = 0;
    bool halted = false;
    std::vector<Bbv> bbvs;
    SimPoints picks;
};

Profile
profile(const wl::Program &prog, Mode mode, InstCount interval,
        InstCount budget = 5'000'000)
{
    iss::System sys(64);
    prog.loadInto(sys.dram);
    nemu::Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    if (mode == Mode::Unchained)
        nemu.setChainingEnabled(false);
    Profile p;
    BbvCollector bbv(interval);
    nemu.setBlockHook([&](Addr pc, uint32_t len) {
        p.blocks.emplace_back(pc, len);
        bbv.onBlock(pc, len);
    });

    if (mode == Mode::Step) {
        auto r = nemu.Interp::run(budget);
        p.executed = r.executed;
        p.halted = r.halted;
    } else if (mode == Mode::Chunked) {
        // Resume in odd-sized pieces, so blocks straddle run() calls
        // and chunk ends land on every kind of instruction.
        static const InstCount sizes[] = {1, 2, 3, 7, 13, 64, 997, 5, 8193};
        for (size_t k = 0; p.executed < budget && !p.halted; ++k) {
            InstCount n = std::min(sizes[k % std::size(sizes)],
                                   budget - p.executed);
            auto r = nemu.run(n);
            p.executed += r.executed;
            p.halted = r.halted;
        }
    } else {
        auto r = nemu.run(budget);
        p.executed = r.executed;
        p.halted = r.halted;
    }
    bbv.finish();
    p.bbvs = bbv.intervals();
    p.picks = simpoint(p.bbvs, 4);
    return p;
}

void
expectSameProfile(const Profile &step, const Profile &fast)
{
    EXPECT_TRUE(step.halted);
    EXPECT_EQ(fast.halted, step.halted);
    EXPECT_EQ(fast.executed, step.executed);
    ASSERT_EQ(fast.blocks.size(), step.blocks.size());
    for (size_t i = 0; i < step.blocks.size(); ++i)
        ASSERT_EQ(fast.blocks[i], step.blocks[i]) << "block " << i;
    EXPECT_EQ(fast.bbvs, step.bbvs);
    EXPECT_EQ(fast.picks.intervals, step.picks.intervals);
    EXPECT_EQ(fast.picks.weights, step.picks.weights);
    EXPECT_EQ(fast.picks.assignment, step.picks.assignment);
}

void
expectEveryModeMatches(const wl::Program &prog, InstCount interval)
{
    SCOPED_TRACE(prog.name);
    auto step = profile(prog, Mode::Step, interval);
    ASSERT_FALSE(step.blocks.empty());
    for (Mode m : {Mode::Fast, Mode::Unchained, Mode::Chunked}) {
        SCOPED_TRACE(static_cast<int>(m));
        expectSameProfile(step, profile(prog, m, interval));
    }
}

TEST(BbvFastPath, MatchesStepPathOnEverySpecProxy)
{
    size_t n = 0;
    for (const auto *suite : {&wl::specIntSuite(), &wl::specFpSuite()}) {
        for (const auto &spec : *suite) {
            expectEveryModeMatches(wl::buildProxy(spec, 40), 3'000);
            ++n;
        }
    }
    EXPECT_EQ(n, 26u);
}

/** M-mode loop that takes an ecall, a load and a store access fault
 *  and an illegal instruction per iteration; the handler skips the
 *  faulting instruction. */
wl::Program
trapProgram(unsigned iterations)
{
    wl::Asm a(0x80000000);
    wl::Label handler = a.newLabel();
    wl::Label loop = a.newLabel();
    a.li(wl::t0, 0x80001000);
    a.csr(Op::Csrrw, wl::zero, isa::CSR_MTVEC, wl::t0);
    a.li(wl::s0, iterations);
    a.li(wl::s1, 0x1000); // no device or memory here
    a.li(wl::a0, 0);
    a.bind(loop);
    a.itype(Op::Addi, wl::a0, wl::a0, 1);
    a.itype(Op::Ecall, 0, 0, 0);
    a.itype(Op::Addi, wl::a1, wl::a0, 3);
    a.load(Op::Lw, wl::t1, 0, wl::s1);
    a.store(Op::Sd, wl::a1, 8, wl::s1);
    a.raw16(0); // c.unimp twice: an illegal instruction, 4 bytes
    a.raw16(0);
    a.rtype(Op::Add, wl::a2, wl::a1, wl::a0);
    a.csr(Op::Csrrs, wl::t3, isa::CSR_MSCRATCH, wl::zero);
    a.itype(Op::Addi, wl::s0, wl::s0, -1);
    a.branch(Op::Bne, wl::s0, wl::zero, loop);
    a.exit(0);
    while (a.here() < 0x80001000)
        a.nop();
    a.bind(handler);
    a.csr(Op::Csrrs, wl::t4, isa::CSR_MEPC, wl::zero);
    a.itype(Op::Addi, wl::t4, wl::t4, 4);
    a.csr(Op::Csrrw, wl::zero, isa::CSR_MEPC, wl::t4);
    a.itype(Op::Mret, 0, 0, 0);

    wl::Program prog;
    prog.name = "traps";
    prog.entry = a.base();
    prog.segments.push_back(a.finish());
    return prog;
}

TEST(BbvFastPath, MatchesStepPathAcrossTraps)
{
    auto prog = trapProgram(300);
    expectEveryModeMatches(prog, 500);

    // The program really trapped, four times per iteration: the
    // handler's first block (its csrrs ends it) is in the stream once
    // per trap.
    auto fast = profile(prog, Mode::Fast, 500);
    auto handlerBlocks = std::count(
        fast.blocks.begin(), fast.blocks.end(),
        std::pair<Addr, uint32_t>{0x80001000, 1});
    EXPECT_EQ(handlerBlocks, 4 * 300);
}

TEST(BbvFastPath, MatchesStepPathWithChainingAblated)
{
    // Covered for every proxy above; pinned here on the CoreMark
    // stand-in and the paged S-mode program on their own.
    for (const auto &prog : {wl::coremarkProxy(50), wl::sv39Program()}) {
        SCOPED_TRACE(prog.name);
        expectSameProfile(profile(prog, Mode::Step, 2'000),
                          profile(prog, Mode::Unchained, 2'000));
    }
}

TEST(BbvFastPath, ResumesAcrossOddSizedRunChunks)
{
    for (const auto &prog : {wl::coremarkProxy(50), wl::sv39Program(),
                             trapProgram(50)}) {
        SCOPED_TRACE(prog.name);
        expectSameProfile(profile(prog, Mode::Step, 2'000),
                          profile(prog, Mode::Chunked, 2'000));
    }
}

} // namespace
