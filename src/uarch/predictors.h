/**
 * @file
 * Branch prediction components of the XIANGSHAN frontend (Table II):
 * micro-BTB, main BTB, a 4-table TAGE with statistical corrector, an
 * ITTAGE indirect-target predictor, and a return address stack.
 *
 * The predictors are real (tables, folded histories, allocation and
 * useful-bit policies), not oracles; their accuracy drives the cycle
 * model's misprediction penalties, and TAGE confidence feeds the PUBS
 * issue-policy case study (paper Section IV-D).
 */

#ifndef MINJIE_UARCH_PREDICTORS_H
#define MINJIE_UARCH_PREDICTORS_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace minjie::uarch {

/**
 * Prediction result with the confidence PUBS consumes, plus the table
 * indices/tags computed from the prediction-time history. Training at
 * commit uses these stored coordinates so allocation, lookup and update
 * always agree on the history context of a dynamic branch.
 */
struct CondPred
{
    bool taken = false;
    bool confident = true;  ///< strong provider counter and no SC dissent
    int provider = -1;      ///< tagged table that provided (-1 = base)
    uint32_t idx[4] = {};
    uint16_t tag[4] = {};
    uint32_t scIdx[2] = {};
    uint32_t baseIdx = 0;
};

/**
 * TAGE conditional predictor with 4 tagged tables and a statistical
 * corrector, plus a bimodal base table.
 */
class Tage
{
  public:
    /** @param totalEntries across tagged tables (paper: 16K) */
    explicit Tage(unsigned totalEntries = 16384, uint64_t seed = 42);

    /**
     * Predict the branch at @p pc using the current (fetch-time)
     * history. The caller must pushHistory() with the resolved
     * direction immediately afterwards (the cycle model's fetch always
     * follows the correct path, so no history repair is needed).
     */
    CondPred predict(Addr pc) const;

    /** Commit-time update using the coordinates saved at prediction. */
    void update(const CondPred &pred, bool taken);

    /** Fetch-time history push with the actual direction. */
    void pushHistory(bool taken);

    /** Power-on state: empty tables and history, counters zeroed. */
    void reset();

    uint64_t lookups() const { return lookups_; }
    uint64_t mispredicts() const { return mispredicts_; }

  private:
    struct TaggedEntry
    {
        uint16_t tag = 0;
        int8_t ctr = 0;   ///< -4..3 signed: >=0 means taken
        uint8_t useful = 0;
    };

    static constexpr unsigned N_TABLES = 4;
    static constexpr unsigned HIST_LEN[N_TABLES] = {8, 16, 32, 64};
    static constexpr unsigned TAG_BITS = 9;

    unsigned tableIndex(unsigned t, Addr pc) const;
    uint16_t tableTag(unsigned t, Addr pc) const;

    unsigned entriesPerTable_;
    unsigned indexBits_;
    std::vector<TaggedEntry> tables_[N_TABLES];
    std::vector<int8_t> base_; // bimodal: -2..1, >=0 taken
    uint64_t ghr_ = 0;         // 64-bit global history

    // Statistical corrector: per-table 6-bit signed counters summed
    // against the TAGE output.
    static constexpr unsigned SC_TABLES = 2;
    static constexpr unsigned SC_ENTRIES = 1024;
    std::vector<int8_t> sc_[SC_TABLES];
    int scThreshold_ = 6;

    uint64_t seed_;
    uint64_t rngState_;
    mutable uint64_t lookups_ = 0;
    uint64_t mispredicts_ = 0;
};

/** ITTAGE prediction with stored table coordinates (same scheme as
 *  CondPred). */
struct IndirectPred
{
    Addr target = 0;
    uint32_t idx[2] = {};
    uint16_t tag[2] = {};
    uint32_t baseIdx = 0;
};

/** ITTAGE indirect-target predictor (two tagged tables over a base). */
class Ittage
{
  public:
    explicit Ittage(unsigned entries = 512);

    /** Predict the target of the indirect branch at @p pc. */
    IndirectPred predict(Addr pc) const;
    /** Commit-time update with the prediction-time coordinates. */
    void update(const IndirectPred &pred, Addr target);
    /** Fetch-time path-history push with the actual target. */
    void pushHistory(Addr target);

    /** Power-on state: empty tables and history. */
    void reset();

  private:
    struct Entry
    {
        uint16_t tag = 0;
        Addr target = 0;
        uint8_t conf = 0;
    };
    static constexpr unsigned HIST_LEN[2] = {8, 24};
    unsigned entries_;
    std::vector<Entry> tables_[2];
    std::vector<Addr> base_;
    uint64_t pathHist_ = 0;

    unsigned idx(unsigned t, Addr pc) const;
    uint16_t tag(unsigned t, Addr pc) const;
};

/** Direct-mapped micro-BTB: single-cycle next-line prediction. */
class MicroBtb
{
  public:
    explicit MicroBtb(unsigned entries) : entries_(entries),
        table_(entries) {}

    /** @return true on hit; fills @p target and @p taken bias. */
    bool
    predict(Addr pc, Addr &target, bool &taken) const
    {
        const auto &e = table_[index(pc)];
        if (e.valid && e.pc == pc) {
            target = e.target;
            taken = e.taken;
            return true;
        }
        return false;
    }

    /** Power-on state: every entry invalid. */
    void reset() { std::fill(table_.begin(), table_.end(), Entry{}); }

    void
    update(Addr pc, Addr target, bool taken)
    {
        auto &e = table_[index(pc)];
        e.valid = true;
        e.pc = pc;
        e.target = target;
        e.taken = taken;
    }

  private:
    struct Entry
    {
        bool valid = false;
        bool taken = false;
        Addr pc = 0;
        Addr target = 0;
    };
    unsigned
    index(Addr pc) const
    {
        return static_cast<unsigned>((pc >> 1) % entries_);
    }
    unsigned entries_;
    std::vector<Entry> table_;
};

/** 4-way set-associative BTB with true-LRU. */
class Btb
{
  public:
    explicit Btb(unsigned entries, unsigned ways = 4);

    bool predict(Addr pc, Addr &target) const;
    void update(Addr pc, Addr target);

    /** Power-on state: every entry invalid, counters zeroed. */
    void reset();

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

  private:
    struct Entry
    {
        bool valid = false;
        Addr pc = 0;
        Addr target = 0;
        uint64_t lru = 0;
    };
    unsigned sets_, ways_;
    std::vector<Entry> table_;
    uint64_t tick_ = 0;
    mutable uint64_t hits_ = 0, misses_ = 0;
};

/** Return address stack with overflow wrap (no recovery checkpointing:
 *  the cycle model trains at commit so the RAS stays architectural). */
class Ras
{
  public:
    explicit Ras(unsigned depth = 32) : stack_(depth) {}

    void
    push(Addr ret)
    {
        top_ = static_cast<unsigned>((top_ + 1) % stack_.size());
        stack_[top_] = ret;
        if (size_ < stack_.size())
            ++size_;
    }

    Addr
    pop()
    {
        if (size_ == 0)
            return 0;
        Addr v = stack_[top_];
        top_ = static_cast<unsigned>((top_ + stack_.size() - 1) %
                                     stack_.size());
        --size_;
        return v;
    }

    unsigned size() const { return size_; }

    /** Power-on state: empty stack. */
    void
    reset()
    {
        std::fill(stack_.begin(), stack_.end(), 0);
        top_ = size_ = 0;
    }

  private:
    std::vector<Addr> stack_;
    unsigned top_ = 0;
    unsigned size_ = 0;
};

} // namespace minjie::uarch

#endif // MINJIE_UARCH_PREDICTORS_H
