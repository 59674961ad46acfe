/**
 * @file
 * Engine-pair lockstep co-simulation: the campaign's unit of work.
 *
 * Two interpreter engines execute the same program one instruction at a
 * time with the full architectural state compared after every step, so
 * a disagreement is caught at the *first* diverging instruction — the
 * information the campaign needs for bucketing and shrinking, and the
 * in-repo analogue of DiffTest commit-level checking applied to pairs
 * of reference models.
 */

#ifndef MINJIE_CAMPAIGN_LOCKSTEP_H
#define MINJIE_CAMPAIGN_LOCKSTEP_H

#include <memory>
#include <string>

#include "isa/op.h"
#include "workload/programs.h"

namespace minjie::iss {
class Interp;
struct System;
} // namespace minjie::iss

namespace minjie::campaign {

/** The co-simulation engines a campaign can pit against each other. */
enum class Engine { Spike, Dromajo, Tci, Nemu };

const char *engineName(Engine e);

/** Parse an engine name; returns false on unknown names. */
bool parseEngine(const std::string &name, Engine &out);

/**
 * Deliberate semantic corruption of one side of a pair — the campaign's
 * self-test ("testing the tester", paper Section IV-C): after the
 * chosen side executes a matching instruction, its destination register
 * is XORed with @p xorMask. The campaign must catch, bucket and shrink
 * the resulting divergence.
 */
struct BugInject
{
    bool enabled = false;
    int side = 1;            ///< 0 = engine A, 1 = engine B
    isa::Op op = isa::Op::Xor;
    uint64_t xorMask = 1;
};

/** First-divergence record for an engine-pair run. */
struct Divergence
{
    enum class Kind { None, XReg, FReg, Fflags, Pc, Memory, Timeout };

    Kind kind = Kind::None;
    uint64_t step = 0;   ///< instruction index of the divergence
    Addr pc = 0;         ///< pc of the diverging instruction
    isa::Op op = isa::Op::Illegal; ///< decoded op at that pc
    unsigned reg = 0;    ///< diverging register / sandbox byte offset
    uint64_t valA = 0;
    uint64_t valB = 0;

    bool diverged() const { return kind != Kind::None; }

    /**
     * Stable bucket key: kind, opcode class and mnemonic. The pc,
     * register index and values stay out of the key (random programs
     * place the same logical bug at arbitrary pcs/registers) but remain
     * in the record and the JSON report.
     */
    std::string signature() const;

    /** Human-readable one-line description. */
    std::string describe() const;
};

/** Outcome of one lockstep run. */
struct LockstepResult
{
    Divergence div;
    uint64_t steps = 0;  ///< instructions executed per engine
    bool exited = false; ///< both engines reached the SimCtrl exit
};

/**
 * Per-run engine tuning. The NEMU ablation flags mirror
 * `--nemu-no-chain` / `--nemu-no-fastpath`: the campaign exercises the
 * chained fast-path engine by default (divergences there are exactly
 * what co-simulation exists to catch), but either optimization can be
 * switched off to bisect a miscompare.
 */
struct LockstepOptions
{
    bool nemuChain = true;    ///< block chaining + superblocks
    bool nemuFastPath = true; ///< host-pointer TLB + direct-DRAM path
};

/**
 * One engine with its private functional system (DRAM, bus, devices).
 * A box outlives the programs it runs: load() returns it to the state
 * of a freshly built box, so a campaign worker builds each kind once.
 */
class EngineBox
{
  public:
    explicit EngineBox(Engine kind, const LockstepOptions &opts = {});
    ~EngineBox();
    EngineBox(const EngineBox &) = delete;
    EngineBox &operator=(const EngineBox &) = delete;

    /** Clear memory and devices, load @p prog and reset the engine
     *  to its entry. */
    void load(const workload::Program &prog);

    iss::System &system() { return *sys_; }
    iss::Interp &interp() { return *interp_; }

  private:
    std::unique_ptr<iss::System> sys_;
    std::unique_ptr<iss::Interp> interp_;
};

/**
 * Run @p prog on engines @p a and @p b in lockstep for at most
 * @p maxSteps instructions, comparing pc, integer/fp registers and
 * fflags after every instruction and the data sandbox at exit.
 *
 * Engines step through the virtual Interp::run(1) so NEMU executes its
 * production threaded-code path (chaining, host TLB) with
 * per-instruction commit granularity.
 */
LockstepResult runLockstep(Engine a, Engine b, const workload::Program &prog,
                           uint64_t maxSteps,
                           const BugInject *bug = nullptr,
                           const LockstepOptions &opts = {});

/** The same run on two existing boxes, which load() @p prog first. */
LockstepResult runLockstep(EngineBox &a, EngineBox &b,
                           const workload::Program &prog,
                           uint64_t maxSteps,
                           const BugInject *bug = nullptr);

} // namespace minjie::campaign

#endif // MINJIE_CAMPAIGN_LOCKSTEP_H
