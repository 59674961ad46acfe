#include "campaign/lockstep.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "isa/decode.h"
#include "isa/disasm.h"
#include "iss/interp.h"
#include "iss/system.h"
#include "nemu/nemu.h"

namespace minjie::campaign {

using namespace minjie::iss;

const char *
engineName(Engine e)
{
    switch (e) {
      case Engine::Spike: return "spike";
      case Engine::Dromajo: return "dromajo";
      case Engine::Tci: return "tci";
      case Engine::Nemu: return "nemu";
    }
    return "?";
}

bool
parseEngine(const std::string &name, Engine &out)
{
    if (name == "spike")
        out = Engine::Spike;
    else if (name == "dromajo")
        out = Engine::Dromajo;
    else if (name == "tci")
        out = Engine::Tci;
    else if (name == "nemu")
        out = Engine::Nemu;
    else
        return false;
    return true;
}

EngineBox::EngineBox(Engine kind, const LockstepOptions &opts)
    : sys_(std::make_unique<System>(32))
{
    switch (kind) {
      case Engine::Spike:
        interp_ = std::make_unique<SpikeInterp>(sys_->bus, 0, DRAM_BASE);
        break;
      case Engine::Dromajo:
        interp_ = std::make_unique<DromajoInterp>(sys_->bus, 0, DRAM_BASE);
        break;
      case Engine::Tci:
        interp_ = std::make_unique<TciInterp>(sys_->bus, 0, DRAM_BASE);
        break;
      case Engine::Nemu: {
        auto n = std::make_unique<nemu::Nemu>(sys_->bus, sys_->dram, 0,
                                              DRAM_BASE);
        n->setChainingEnabled(opts.nemuChain);
        n->setFastPathEnabled(opts.nemuFastPath);
        interp_ = std::move(n);
        break;
      }
    }
}

EngineBox::~EngineBox() = default;

void
EngineBox::load(const workload::Program &prog)
{
    sys_->reset();
    prog.loadInto(sys_->dram);
    interp_->reset(prog.entry);
}

namespace {

/** Post-step corruption of the injected side's destination register. */
void
applyBug(const BugInject &bug, ArchState &st, const isa::DecodedInst &di)
{
    if (di.op != bug.op || di.rd == 0)
        return;
    if (isa::writesFpRd(di.op)) {
        st.f[di.rd] ^= bug.xorMask;
        return;
    }
    if (isa::isStore(di.op) || isa::isCondBranch(di.op))
        return;
    st.setX(di.rd, st.x[di.rd] ^ bug.xorMask);
}

/** Compare every loaded segment's memory image across the two
 *  systems, one page span at a time; records the first differing
 *  byte. */
bool
compareMemory(EngineBox &a, EngineBox &b, const workload::Program &prog,
              Divergence &div)
{
    mem::PhysMem &ma = a.system().dram;
    mem::PhysMem &mb = b.system().dram;
    for (const auto &seg : prog.segments) {
        for (size_t i = 0; i < seg.bytes.size();) {
            Addr addr = seg.base + i;
            size_t n = std::min<size_t>(
                seg.bytes.size() - i,
                mem::PhysMem::PAGE_SIZE - (addr & mem::PhysMem::PAGE_MASK));
            const uint8_t *pa = ma.pagePtr(addr);
            const uint8_t *pb = mb.pagePtr(addr);
            if (std::memcmp(pa, pb, n) != 0) {
                size_t k = 0;
                while (pa[k] == pb[k])
                    ++k;
                div.kind = Divergence::Kind::Memory;
                div.reg = static_cast<unsigned>(i + k);
                div.pc = addr + k; // diverging address, not a pc
                div.valA = pa[k];
                div.valB = pb[k];
                return false;
            }
            i += n;
        }
    }
    return true;
}

} // namespace

std::string
Divergence::signature() const
{
    const char *kindName = "none";
    switch (kind) {
      case Kind::XReg: kindName = "xreg"; break;
      case Kind::FReg: kindName = "freg"; break;
      case Kind::Fflags: kindName = "fflags"; break;
      case Kind::Pc: kindName = "pc"; break;
      case Kind::Memory: kindName = "mem"; break;
      case Kind::Timeout: kindName = "timeout"; break;
      case Kind::None: break;
    }
    if (kind == Kind::Memory || kind == Kind::Timeout ||
        kind == Kind::None)
        return kindName;
    return std::string(kindName) + ":" + isa::opClassName(op) + ":" +
           isa::opName(op);
}

std::string
Divergence::describe() const
{
    if (!diverged())
        return "no divergence";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s at step %llu pc 0x%llx (%s) reg %u: A=0x%llx"
                  " B=0x%llx",
                  signature().c_str(),
                  static_cast<unsigned long long>(step),
                  static_cast<unsigned long long>(pc), isa::opName(op),
                  reg, static_cast<unsigned long long>(valA),
                  static_cast<unsigned long long>(valB));
    return buf;
}

LockstepResult
runLockstep(Engine a, Engine b, const workload::Program &prog,
            uint64_t maxSteps, const BugInject *bug,
            const LockstepOptions &opts)
{
    EngineBox ea(a, opts);
    EngineBox eb(b, opts);
    return runLockstep(ea, eb, prog, maxSteps, bug);
}

LockstepResult
runLockstep(EngineBox &ea, EngineBox &eb, const workload::Program &prog,
            uint64_t maxSteps, const BugInject *bug)
{
    ea.load(prog);
    eb.load(prog);
    Interp &ia = ea.interp();
    Interp &ib = eb.interp();
    ArchState &sa = ia.state();
    ArchState &sb = ib.state();
    LockstepResult res;
    Divergence &d = res.div;
    const bool injecting = bug && bug->enabled;

    // The raw word at the last stepped pc; decoded only when a record
    // needs its op (injection, a divergence, the final report).
    uint64_t raw = 0;
    auto stampOp = [&] { d.op = isa::decode(static_cast<uint32_t>(raw)).op; };

    for (uint64_t step = 0; step < maxSteps; ++step) {
        if (ea.system().simctrl.exited() && eb.system().simctrl.exited()) {
            res.exited = true;
            d.step = step;
            if (res.steps)
                stampOp();
            compareMemory(ea, eb, prog, d);
            return res;
        }

        Addr pc = sa.pc;
        raw = 0;
        ea.system().dram.read(pc, 4, raw);

        // run(1) is virtual: NEMU executes through its chained
        // threaded-code engine, the baseline engines through step().
        iss::RunResult ra = ia.run(1);
        iss::RunResult rb = ib.run(1);
        ++res.steps;

        if (injecting && !(bug->side == 0 ? ra : rb).trapped)
            applyBug(*bug, bug->side == 0 ? sa : sb,
                     isa::decode(static_cast<uint32_t>(raw)));

        d.step = step;
        d.pc = pc;
        if (sa.pc != sb.pc) {
            d.kind = Divergence::Kind::Pc;
            d.valA = sa.pc;
            d.valB = sb.pc;
            stampOp();
            return res;
        }
        if (std::memcmp(sa.x, sb.x, sizeof(sa.x)) != 0) {
            d.kind = Divergence::Kind::XReg;
            for (unsigned r = 0; r < 32; ++r) {
                if (sa.x[r] != sb.x[r]) {
                    d.reg = r;
                    d.valA = sa.x[r];
                    d.valB = sb.x[r];
                    break;
                }
            }
            stampOp();
            return res;
        }
        if (std::memcmp(sa.f, sb.f, sizeof(sa.f)) != 0) {
            d.kind = Divergence::Kind::FReg;
            for (unsigned r = 0; r < 32; ++r) {
                if (sa.f[r] != sb.f[r]) {
                    d.reg = r;
                    d.valA = sa.f[r];
                    d.valB = sb.f[r];
                    break;
                }
            }
            stampOp();
            return res;
        }
        if (sa.csr.fflags != sb.csr.fflags) {
            d.kind = Divergence::Kind::Fflags;
            d.valA = sa.csr.fflags;
            d.valB = sb.csr.fflags;
            stampOp();
            return res;
        }
    }

    d.kind = Divergence::Kind::Timeout;
    d.step = res.steps;
    if (res.steps)
        stampOp();
    return res;
}

} // namespace minjie::campaign
