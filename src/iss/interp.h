/**
 * @file
 * Functional interpreter engines.
 *
 * Three baseline engines reproduce the architectural differences of the
 * interpreters compared in the paper's Figure 8 (we implement the
 * *architectures*, not the tools themselves):
 *
 *  - SpikeInterp   — decoded-instruction software cache (direct-mapped,
 *                    configurable entries, default 16384 as selected in
 *                    the paper) + switch execution + soft-float;
 *  - DromajoInterp — fetch + full decode on every instruction, no cache,
 *                    soft-float;
 *  - TciInterp     — guest basic blocks translated once into a flat
 *                    multi-uop bytecode buffer that is interpreted
 *                    op-by-op (the QEMU-TCI execution model), soft-float.
 *
 * The fast NEMU engine lives in src/nemu/.
 */

#ifndef MINJIE_ISS_INTERP_H
#define MINJIE_ISS_INTERP_H

#include <functional>
#include <memory>
#include <vector>

#include "isa/decode.h"
#include "iss/exec.h"

namespace minjie::iss {

/** Result of running an interpreter for a bounded number of steps. */
struct RunResult
{
    InstCount executed = 0;
    bool halted = false;  ///< halt predicate fired (e.g. SimCtrl exit)
    bool trapped = false; ///< at least one trap was taken during the run
};

/**
 * Base class owning the architectural state, the MMU and the step loop.
 * Engines override stepOnce().
 */
class Interp
{
  public:
    Interp(mem::MemPort &mem, HartId hart, Addr entry,
           fp::FpBackend fpb)
        : mem_(mem), mmu_(st_, mem), fpb_(fpb), hart_(hart)
    {
        st_.reset(entry, hart);
    }
    virtual ~Interp() = default;

    /**
     * Return to the state of a freshly constructed engine at @p entry
     * over the same memory: architectural state, MMU and every cached
     * translation. Engines reused across programs (campaign workers)
     * call this instead of reconstructing; the halt predicate stays.
     */
    virtual void
    reset(Addr entry)
    {
        st_ = ArchState{};
        st_.reset(entry, hart_);
        mmu_.reset();
    }

    ArchState &state() { return st_; }
    const ArchState &state() const { return st_; }
    Mmu &mmu() { return mmu_; }

    /** Optional halt predicate polled between instructions. */
    void setHaltFn(std::function<bool()> fn) { haltFn_ = std::move(fn); }

    /**
     * Execute one instruction (committing a trap redirect if raised).
     * @p info receives probe-visible effects when non-null.
     * @return the trap taken, or none.
     */
    isa::Trap
    step(ExecInfo *info = nullptr)
    {
        isa::Trap t = stepOnce(info);
        if (t.pending())
            takeTrap(st_, t, st_.pc);
        ++st_.instret;
        ++st_.csr.minstret;
        ++st_.csr.mcycle;
        return t;
    }

    /**
     * Deliver interrupt @p irq now (DiffTest uses this to force the REF
     * to take the same interrupt as the DUT). Virtual so engines caching
     * translations can drop them across the privilege change.
     */
    virtual void raiseInterrupt(isa::Irq irq) { takeInterrupt(st_, irq); }

    /**
     * Run up to @p maxInsts instructions or until the halt predicate.
     * Virtual: NEMU overrides with its threaded-code engine, so run(1)
     * through an Interp pointer still drives the chained fast path with
     * per-instruction commit granularity (lockstep co-simulation).
     */
    virtual RunResult
    run(InstCount maxInsts)
    {
        RunResult r;
        while (r.executed < maxInsts) {
            if (step().pending())
                r.trapped = true;
            ++r.executed;
            if (haltFn_ && haltFn_()) {
                r.halted = true;
                break;
            }
        }
        return r;
    }

  protected:
    /** Engine-specific fetch/decode/execute of one instruction. */
    virtual isa::Trap stepOnce(ExecInfo *info) = 0;

    ArchState st_;
    mem::MemPort &mem_;
    Mmu mmu_;
    fp::FpBackend fpb_;
    HartId hart_;
    std::function<bool()> haltFn_;
};

/** Spike-proxy: direct-mapped decoded-instruction cache + soft-float. */
class SpikeInterp : public Interp
{
  public:
    SpikeInterp(mem::MemPort &mem, HartId hart, Addr entry,
                unsigned cacheEntries = 16384)
        : Interp(mem, hart, entry, fp::FpBackend::Soft),
          mask_(cacheEntries - 1), cache_(cacheEntries)
    {
    }

    uint64_t decodeCacheHits() const { return hits_; }
    uint64_t decodeCacheMisses() const { return misses_; }

    void reset(Addr entry) override;

  protected:
    isa::Trap stepOnce(ExecInfo *info) override;

  private:
    struct Entry
    {
        Addr pc = ~0ULL;
        isa::DecodedInst di;
    };

    /** Invalidate every filled entry (fence.i, reset). */
    void flushCache();

    uint64_t mask_;
    std::vector<Entry> cache_;
    /** Indices of the valid entries, so a flush touches only those
     *  instead of sweeping the whole table. */
    std::vector<uint32_t> filled_;
    uint64_t hits_ = 0, misses_ = 0;
};

/** Dromajo-proxy: no decode cache at all. */
class DromajoInterp : public Interp
{
  public:
    DromajoInterp(mem::MemPort &mem, HartId hart, Addr entry)
        : Interp(mem, hart, entry, fp::FpBackend::Soft)
    {
    }

  protected:
    isa::Trap stepOnce(ExecInfo *info) override;
};

/**
 * QEMU-TCI proxy: each guest basic block is translated once into
 * bytecode — every guest instruction lowers to four records
 * (LD_OPERANDS, EXEC, WRITE_BACK, ADVANCE_PC) that a nested dispatcher
 * interprets one by one, reading operands from the byte stream.
 *
 * Like TCG's code buffer, translations append to one flat per-engine
 * buffer (bytecode plus decoded instructions); a direct-mapped table
 * maps a block's start pc to its span, and the whole buffer is
 * flushed when it fills, on fence.i and on reset(), so memory stays
 * bounded however long the engine lives. Execution keeps a cursor into
 * the current block and looks a block up only when the pc leaves it
 * (a taken branch, a trap, an interrupt, the block's end); entering
 * the middle of a translated block translates a new block from there.
 */
class TciInterp : public Interp
{
  public:
    TciInterp(mem::MemPort &mem, HartId hart, Addr entry)
        : Interp(mem, hart, entry, fp::FpBackend::Soft)
    {
    }

    /** Blocks translated since construction or the last reset(). */
    uint64_t blocksTranslated() const { return translated_; }

    void reset(Addr entry) override;

  protected:
    isa::Trap stepOnce(ExecInfo *info) override;

  private:
    // Bytecode ops: a guest instruction expands to LD_OPERANDS,
    // EXEC, WRITE_BACK, ADVANCE_PC records, mirroring how TCG lowers
    // one guest op into several TCG ops.
    enum class Bc : uint8_t { LdOperands, Exec, WriteBack, AdvancePc };
    static constexpr unsigned BC_BYTES = 9; ///< bytecode per guest inst

    /** Lookup-table slot: a translated block's span in the buffer. */
    struct Slot
    {
        Addr pc = ~0ULL;
        uint32_t first = 0; ///< index of its first instruction
        uint32_t count = 0; ///< guest instructions in the block
    };

    static constexpr unsigned BLOCK_CACHE = 4096; ///< lookup slots
    static constexpr unsigned MAX_BLOCK = 64;     ///< insts per block
    static constexpr uint32_t CODE_CAP = 16384;   ///< buffer, in insts

    /** The block starting at @p pc, translating it on a miss; null
     *  (with @p trap set) when its first instruction cannot be
     *  fetched. */
    const Slot *lookupBlock(Addr pc, isa::Trap &trap);

    /** Drop every translation and the cursor. */
    void flushCode();

    std::vector<Slot> slots_ = std::vector<Slot>(BLOCK_CACHE);
    /** Indices of the filled slots, so a flush touches only those. */
    std::vector<uint32_t> filled_;
    std::vector<uint8_t> code_;            ///< BC_BYTES per inst
    std::vector<isa::DecodedInst> insts_;  ///< parallel to code_
    // Cursor: next instruction of the current block and the pc it
    // executes at; any other pc goes through lookupBlock().
    uint32_t cur_ = 0, blockFirst_ = 0, blockEnd_ = 0;
    Addr curPc_ = ~0ULL;
    uint64_t translated_ = 0;
    // Scratch "TCG registers" the bytecode moves operands through.
    uint64_t tmp_[4] = {};
};

} // namespace minjie::iss

#endif // MINJIE_ISS_INTERP_H
