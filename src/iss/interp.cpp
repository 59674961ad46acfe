#include "iss/interp.h"

namespace minjie::iss {

using namespace minjie::isa;

Trap
SpikeInterp::stepOnce(ExecInfo *info)
{
    Addr pc = st_.pc;
    auto idx = static_cast<uint32_t>((pc >> 1) & mask_);
    Entry &e = cache_[idx];
    if (e.pc != pc) {
        ++misses_;
        uint32_t raw;
        Trap t = mmu_.fetch(pc, raw);
        if (t.pending())
            return t;
        if (e.pc == ~0ULL)
            filled_.push_back(idx);
        e.pc = pc;
        e.di = decode(raw);
    } else {
        ++hits_;
    }
    Trap t = execInst(st_, mmu_, e.di, fpb_, info);
    if (e.di.op == Op::FenceI)
        flushCache();
    return t;
}

void
SpikeInterp::flushCache()
{
    for (uint32_t idx : filled_)
        cache_[idx].pc = ~0ULL;
    filled_.clear();
}

void
SpikeInterp::reset(Addr entry)
{
    Interp::reset(entry);
    flushCache();
    hits_ = misses_ = 0;
}

Trap
DromajoInterp::stepOnce(ExecInfo *info)
{
    uint32_t raw;
    Trap t = mmu_.fetch(st_.pc, raw);
    if (t.pending())
        return t;
    DecodedInst di = decode(raw);
    return execInst(st_, mmu_, di, fpb_, info);
}

void
TciInterp::flushCode()
{
    for (uint32_t idx : filled_)
        slots_[idx] = Slot{};
    filled_.clear();
    code_.clear();
    insts_.clear();
    cur_ = blockFirst_ = blockEnd_ = 0;
    curPc_ = ~0ULL;
}

void
TciInterp::reset(Addr entry)
{
    Interp::reset(entry);
    flushCode();
    translated_ = 0;
}

const TciInterp::Slot *
TciInterp::lookupBlock(Addr pc, Trap &trap)
{
    auto idx = static_cast<uint32_t>((pc >> 1) % BLOCK_CACHE);
    Slot &s = slots_[idx];
    if (s.pc == pc)
        return &s;

    // A full buffer is flushed whole, as TCG flushes its code buffer.
    if (insts_.size() + MAX_BLOCK > CODE_CAP)
        flushCode();

    // Translate a basic block: decode until a control transfer or
    // system instruction, lowering each guest instruction to bytecode.
    auto first = static_cast<uint32_t>(insts_.size());
    Addr cur = pc;
    for (unsigned n = 0; n < MAX_BLOCK; ++n) {
        uint32_t raw;
        Trap t = mmu_.fetch(cur, raw);
        if (t.pending()) {
            if (n == 0) {
                trap = t;
                return nullptr;
            }
            break; // the tail re-faults when execution reaches it
        }
        DecodedInst di = decode(raw);
        insts_.push_back(di);
        const uint8_t rec[BC_BYTES] = {
            static_cast<uint8_t>(Bc::LdOperands), di.rs1, di.rs2,
            static_cast<uint8_t>(Bc::Exec), static_cast<uint8_t>(n),
            static_cast<uint8_t>(Bc::WriteBack), di.rd,
            static_cast<uint8_t>(Bc::AdvancePc), di.size,
        };
        code_.insert(code_.end(), rec, rec + BC_BYTES);
        cur += di.size;
        if (isControl(di.op) || isSystem(di.op) || isFence(di.op) ||
            di.op == Op::Illegal)
            break;
    }
    ++translated_;
    if (s.pc == ~0ULL)
        filled_.push_back(idx);
    s.pc = pc;
    s.first = first;
    s.count = static_cast<uint32_t>(insts_.size()) - first;
    return &s;
}

Trap
TciInterp::stepOnce(ExecInfo *info)
{
    Addr pc = st_.pc;
    if (pc != curPc_ || cur_ == blockEnd_) {
        Trap trap = Trap::none();
        const Slot *b = lookupBlock(pc, trap);
        if (!b) {
            curPc_ = ~0ULL;
            return trap;
        }
        blockFirst_ = cur_ = b->first;
        blockEnd_ = b->first + b->count;
    }

    // Walk this instruction's 4 bytecode records through the nested
    // dispatcher (the TCI-style overhead being modeled).
    const uint8_t *bc = code_.data() + size_t{cur_} * BC_BYTES;
    // The next step continues in this block when it runs at the
    // fallthrough pc; a taken branch or trap moves the pc elsewhere.
    const DecodedInst &di = insts_[cur_];
    const bool fenceI = di.op == Op::FenceI;
    curPc_ = pc + di.size;
    ++cur_;
    Trap t = Trap::none();
    for (unsigned cp = 0; cp < BC_BYTES && !t.pending();) {
        switch (static_cast<Bc>(bc[cp])) {
          case Bc::LdOperands:
            tmp_[0] = st_.x[bc[cp + 1]];
            tmp_[1] = st_.x[bc[cp + 2]];
            cp += 3;
            break;
          case Bc::Exec:
            t = execInst(st_, mmu_, insts_[blockFirst_ + bc[cp + 1]],
                         fpb_, info);
            cp += 2;
            break;
          case Bc::WriteBack:
            tmp_[2] = st_.x[bc[cp + 1]];
            cp += 2;
            break;
          case Bc::AdvancePc:
            cp += 2;
            break;
        }
    }
    if (fenceI)
        flushCode();
    return t;
}

} // namespace minjie::iss
