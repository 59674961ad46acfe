/**
 * @file
 * Assembly of the full memory system for 1..N cores: per-core L1I/L1D
 * (plus the YQH "L1+" middle level), private-or-shared L2, optional
 * shared L3, DRAM, and the per-core TLB paths.
 */

#ifndef MINJIE_UARCH_HIERARCHY_H
#define MINJIE_UARCH_HIERARCHY_H

#include <memory>
#include <optional>

#include "obs/trace.h"
#include "uarch/cache.h"
#include "uarch/tlb.h"

namespace minjie::uarch {

/** Full memory-system configuration (Table II columns). */
struct MemCfg
{
    CacheCfg l1i{16 * 1024, 4, 1, 64, false, 4};
    CacheCfg l1d{32 * 1024, 8, 2, 64, false, 8};
    std::optional<CacheCfg> l1plus;      ///< YQH's 128KB L1+
    CacheCfg l2{1024 * 1024, 8, 14, 64, true, 16};
    bool l2Private = false;              ///< NH: one L2 per core
    std::optional<CacheCfg> l3;          ///< NH: shared 6MB L3
    DramCfg dram;
    TlbCfg itlb{40, 0, 1};
    TlbCfg dtlb{40, 0, 1};
    TlbCfg stlb{4096, 4, 2};
    unsigned walkLatency = 40;
};

/**
 * The coherent memory system. All latencies flow from here into the
 * core model; transaction logging feeds ArchDB and the DiffTest
 * permission scoreboard.
 */
class MemHierarchy
{
  public:
    MemHierarchy(const MemCfg &cfg, unsigned nCores);

    /** Instruction fetch through ITLB + L1I. */
    unsigned fetch(HartId core, Addr vaddr, Addr paddr, Cycle now);

    /** Data load through DTLB + L1D. */
    unsigned load(HartId core, Addr vaddr, Addr paddr, Cycle now);

    /** Committed store draining from the store buffer. */
    unsigned store(HartId core, Addr vaddr, Addr paddr, Cycle now);

    /** sfence.vma analogue on the timing TLBs. */
    void flushTlbs(HartId core);

    /** Power-on state of every cache, TLB and the DRAM model, as
     *  freshly constructed; transaction observers stay installed. */
    void reset();

    void setTxnLog(TxnLog log);

    /** Add an observer without disturbing installed ones. */
    void addTxnLog(TxnLog log);

    /** Attach an event tracer for TLB-walk events (null detaches). */
    void setTrace(obs::TraceBuffer *trace) { trace_ = trace; }

    Cache &l1d(HartId core) { return *l1d_[core]; }
    Cache &l1i(HartId core) { return *l1i_[core]; }
    Cache *l2(HartId core)
    {
        return l2_.empty() ? nullptr
                           : l2_[cfg_.l2Private ? core : 0].get();
    }
    Cache *l3() { return l3_.get(); }
    DramModel &dram() { return *dram_; }
    TlbPath &dtlbPath(HartId core) { return *dtlb_[core]; }
    TlbPath &itlbPath(HartId core) { return *itlb_[core]; }

    unsigned numCores() const { return static_cast<unsigned>(l1d_.size()); }

  private:
    MemCfg cfg_;
    std::unique_ptr<DramModel> dram_;
    std::unique_ptr<Cache> l3_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::vector<std::unique_ptr<Cache>> l1plus_;
    std::vector<std::unique_ptr<Cache>> l1i_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::unique_ptr<TimingTlb> stlb_;
    std::vector<std::unique_ptr<TlbPath>> itlb_;
    std::vector<std::unique_ptr<TlbPath>> dtlb_;
    obs::TraceBuffer *trace_ = nullptr;
};

} // namespace minjie::uarch

#endif // MINJIE_UARCH_HIERARCHY_H
