/**
 * The QEMU-TCI proxy translates a basic block once and runs through it
 * with a cursor: these tests pin the translation counts (a straight
 * line costs one block per 64 instructions, a loop translates once) and
 * check that every way of leaving the cursor — a branch into the middle
 * of a translated block, a trap mid-block, an interrupt, fence.i and
 * reset() — resumes exactly where the Dromajo proxy (no caching at all)
 * does, step by step.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "iss/interp.h"
#include "iss/system.h"
#include "workload/programs.h"

namespace {

using namespace minjie;
using namespace minjie::isa;
using namespace minjie::iss;
namespace wl = minjie::workload;

/** @p n straight-line additions, then exit. */
wl::Program
straightLine(unsigned n)
{
    wl::Asm a(0x80000000);
    for (unsigned i = 0; i < n; ++i)
        a.itype(Op::Addi, static_cast<uint8_t>(1 + i % 30),
                static_cast<uint8_t>(1 + (i + 7) % 30),
                static_cast<int64_t>(i % 100));
    a.exit(0);
    wl::Program prog;
    prog.entry = a.base();
    prog.segments.push_back(a.finish());
    return prog;
}

/** One step of a TCI run and a Dromajo run must agree. */
struct Pair
{
    System sysT{32}, sysD{32};
    TciInterp tci;
    DromajoInterp ref;

    explicit Pair(const wl::Program &prog)
        : tci(sysT.bus, 0, prog.entry), ref(sysD.bus, 0, prog.entry)
    {
        prog.loadInto(sysT.dram);
        prog.loadInto(sysD.dram);
    }

    /** Step both engines until exit (or @p max steps), delivering a
     *  machine timer interrupt before every step in @p irqAt. */
    uint64_t
    lockstep(uint64_t max, const std::vector<uint64_t> &irqAt = {})
    {
        uint64_t n = 0;
        size_t nextIrq = 0;
        for (; n < max && !sysT.simctrl.exited(); ++n) {
            if (nextIrq < irqAt.size() && irqAt[nextIrq] == n) {
                tci.raiseInterrupt(Irq::MTimer);
                ref.raiseInterrupt(Irq::MTimer);
                ++nextIrq;
            }
            Trap tt = tci.step();
            Trap td = ref.step();
            EXPECT_EQ(tt.pending(), td.pending()) << "step " << n;
            const ArchState &a = tci.state(), &b = ref.state();
            EXPECT_EQ(a.pc, b.pc) << "step " << n;
            EXPECT_EQ(0, std::memcmp(a.x, b.x, sizeof(a.x)))
                << "step " << n;
            EXPECT_EQ(a.instret, b.instret) << "step " << n;
            if (a.pc != b.pc)
                break;
        }
        EXPECT_EQ(sysT.simctrl.exited(), sysD.simctrl.exited());
        return n;
    }
};

TEST(Tci, StraightLineTranslatesEachBlockOnce)
{
    for (unsigned n : {10u, 64u, 500u, 2000u}) {
        SCOPED_TRACE(n);
        auto prog = straightLine(n);
        Pair p(prog);
        p.lockstep(100'000);
        ASSERT_TRUE(p.sysT.simctrl.exited());
        EXPECT_LE(p.tci.blocksTranslated(), (n + 63) / 64 + 2);
    }
}

TEST(Tci, LoopTranslatesOnce)
{
    auto blocksFor = [](uint64_t iterations) {
        auto prog = wl::sumProgram(iterations);
        Pair p(prog);
        p.lockstep(1'000'000);
        EXPECT_TRUE(p.sysT.simctrl.exited());
        return p.tci.blocksTranslated();
    };
    uint64_t few = blocksFor(3);
    EXPECT_EQ(blocksFor(2000), few);
    EXPECT_LE(few, 6u);
}

TEST(Tci, BranchIntoTheMiddleOfABlockResumesThere)
{
    // The first pass runs the whole block from `top`; the second pass
    // branches to `mid`, inside the already translated block.
    wl::Asm a(0x80000000);
    wl::Label top = a.newLabel(), mid = a.newLabel(), done = a.newLabel();
    a.li(wl::s0, 0);
    a.bind(top);
    a.itype(Op::Addi, wl::a0, wl::a0, 1);
    a.itype(Op::Addi, wl::a1, wl::a1, 10);
    a.bind(mid);
    a.itype(Op::Addi, wl::a2, wl::a2, 100);
    a.itype(Op::Addi, wl::s0, wl::s0, 1);
    a.li(wl::t0, 3);
    a.branch(Op::Beq, wl::s0, wl::t0, done);
    a.branch(Op::Bne, wl::zero, wl::s0, mid);
    a.bind(done);
    a.exit(0);
    wl::Program prog;
    prog.entry = a.base();
    prog.segments.push_back(a.finish());

    Pair p(prog);
    p.lockstep(1'000);
    ASSERT_TRUE(p.sysT.simctrl.exited());
    EXPECT_EQ(p.tci.state().x[wl::a0], 1u);
    EXPECT_EQ(p.tci.state().x[wl::a1], 10u);
    EXPECT_EQ(p.tci.state().x[wl::a2], 300u);
}

/** A straight line that takes an ecall, a load and a store access
 *  fault and an illegal instruction mid-block; the handler skips the
 *  faulting instruction. Optionally loops. */
wl::Program
trapProgram(unsigned iterations)
{
    wl::Asm a(0x80000000);
    wl::Label loop = a.newLabel();
    a.li(wl::t0, 0x80001000);
    a.csr(Op::Csrrw, wl::zero, isa::CSR_MTVEC, wl::t0);
    a.li(wl::s0, iterations);
    a.li(wl::s1, 0x1000); // no device or memory here
    a.bind(loop);
    a.itype(Op::Addi, wl::a0, wl::a0, 1);
    a.itype(Op::Ecall, 0, 0, 0);
    a.itype(Op::Addi, wl::a1, wl::a0, 3);
    a.load(Op::Lw, wl::t1, 0, wl::s1);
    a.store(Op::Sd, wl::a1, 8, wl::s1);
    a.raw16(0); // c.unimp twice: an illegal instruction, 4 bytes
    a.raw16(0);
    a.rtype(Op::Add, wl::a2, wl::a1, wl::a0);
    a.itype(Op::Addi, wl::s0, wl::s0, -1);
    a.branch(Op::Bne, wl::s0, wl::zero, loop);
    a.exit(0);
    while (a.here() < 0x80001000)
        a.nop();
    a.csr(Op::Csrrs, wl::t4, isa::CSR_MEPC, wl::zero);
    a.itype(Op::Addi, wl::t4, wl::t4, 4);
    a.csr(Op::Csrrw, wl::zero, isa::CSR_MEPC, wl::t4);
    a.itype(Op::Mret, 0, 0, 0);

    wl::Program prog;
    prog.entry = a.base();
    prog.segments.push_back(a.finish());
    return prog;
}

TEST(Tci, MidBlockTrapsResumeAfterTheHandler)
{
    Pair p(trapProgram(20));
    p.lockstep(100'000);
    ASSERT_TRUE(p.sysT.simctrl.exited());
    EXPECT_EQ(p.tci.state().x[wl::a0], 20u);
    // Loop body blocks plus the handler's are reused across iterations.
    EXPECT_LE(p.tci.blocksTranslated(), 20u);
}

TEST(Tci, InterruptMidBlockReturnsIntoTheBlock)
{
    // The handler returns to mepc, the interrupted instruction, which
    // sits inside a translated block. Interrupts arrive once mtvec is
    // set (the li takes several instructions).
    wl::Asm a(0x80000000);
    a.li(wl::t0, 0x80001000);
    a.csr(Op::Csrrw, wl::zero, isa::CSR_MTVEC, wl::t0);
    for (unsigned i = 0; i < 40; ++i)
        a.itype(Op::Addi, wl::a0, wl::a0, 1);
    a.exit(0);
    while (a.here() < 0x80001000)
        a.nop();
    a.itype(Op::Addi, wl::a1, wl::a1, 1);
    a.itype(Op::Mret, 0, 0, 0);
    wl::Program prog;
    prog.entry = a.base();
    prog.segments.push_back(a.finish());

    Pair p(prog);
    p.lockstep(1'000, {12, 19, 30, 40});
    ASSERT_TRUE(p.sysT.simctrl.exited());
    EXPECT_EQ(p.tci.state().x[wl::a0], 40u);
    EXPECT_EQ(p.tci.state().x[wl::a1], 4u);
}

TEST(Tci, FenceIFlushesAndResumesAfterIt)
{
    wl::Asm a(0x80000000);
    wl::Label loop = a.newLabel();
    a.li(wl::s0, 4);
    a.bind(loop);
    a.itype(Op::Addi, wl::a0, wl::a0, 1);
    a.itype(Op::FenceI, 0, 0, 0);
    a.itype(Op::Addi, wl::a1, wl::a1, 2);
    a.itype(Op::Addi, wl::s0, wl::s0, -1);
    a.branch(Op::Bne, wl::s0, wl::zero, loop);
    a.exit(0);
    wl::Program prog;
    prog.entry = a.base();
    prog.segments.push_back(a.finish());

    Pair p(prog);
    p.lockstep(1'000);
    ASSERT_TRUE(p.sysT.simctrl.exited());
    EXPECT_EQ(p.tci.state().x[wl::a1], 8u);
    // Every fence.i drops the loop's blocks: both halves of the body
    // are translated again on each of the 4 iterations.
    EXPECT_GE(p.tci.blocksTranslated(), 8u);
}

TEST(Tci, ResetDropsTranslationsAndRepeatsTheRun)
{
    auto prog = trapProgram(5);
    Pair p(prog);
    uint64_t steps = p.lockstep(100'000);
    ASSERT_TRUE(p.sysT.simctrl.exited());
    uint64_t blocks = p.tci.blocksTranslated();
    ArchState first = p.tci.state();

    // Same memory contents and entry: the rerun is identical.
    p.sysT.reset();
    p.sysD.reset();
    prog.loadInto(p.sysT.dram);
    prog.loadInto(p.sysD.dram);
    p.tci.reset(prog.entry);
    p.ref.reset(prog.entry);
    EXPECT_EQ(p.tci.blocksTranslated(), 0u);
    EXPECT_EQ(p.lockstep(100'000), steps);
    EXPECT_EQ(p.tci.blocksTranslated(), blocks);
    EXPECT_EQ(p.tci.state().pc, first.pc);
    EXPECT_EQ(0, std::memcmp(p.tci.state().x, first.x, sizeof(first.x)));
    EXPECT_EQ(p.tci.state().instret, first.instret);
}

} // namespace
