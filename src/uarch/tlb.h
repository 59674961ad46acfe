/**
 * @file
 * Timing TLBs (L1 ITLB / L1 DTLB / unified STLB, Table II).
 *
 * Functional translation is done by iss::Mmu; these model only the
 * latency and reach of the hardware TLBs, including the NH design's
 * split L1 DTLB (direct-mapped large part + fully-associative part).
 */

#ifndef MINJIE_UARCH_TLB_H
#define MINJIE_UARCH_TLB_H

#include <algorithm>
#include <vector>

#include "common/types.h"

namespace minjie::uarch {

struct TlbCfg
{
    unsigned entries = 40;
    unsigned ways = 0;       ///< 0 = fully associative
    unsigned hitLatency = 1;
};

struct TlbStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
};

/** One timing TLB level (tags only). */
class TimingTlb
{
  public:
    explicit TimingTlb(const TlbCfg &cfg) : cfg_(cfg)
    {
        unsigned ways = cfg.ways ? cfg.ways : cfg.entries;
        sets_ = cfg.entries / ways;
        if (sets_ == 0)
            sets_ = 1;
        ways_ = ways;
        entries_.assign(cfg.entries, {});
    }

    /** Power-on state: empty, zeroed statistics. Costs only the sets
     *  inserted into since the last reset. */
    void
    reset()
    {
        for (unsigned set : touchedSets_)
            std::fill_n(entries_.begin() + static_cast<long>(set) * ways_,
                        ways_, Entry{});
        touchedSets_.clear();
        tick_ = 0;
        stats_ = {};
    }

    bool
    lookup(Addr vpn)
    {
        unsigned set = static_cast<unsigned>(vpn % sets_);
        for (unsigned w = 0; w < ways_; ++w) {
            Entry &e = entries_[static_cast<size_t>(set) * ways_ + w];
            if (e.valid && e.vpn == vpn) {
                e.lru = ++tick_;
                ++stats_.hits;
                return true;
            }
        }
        ++stats_.misses;
        return false;
    }

    void
    insert(Addr vpn)
    {
        unsigned set = static_cast<unsigned>(vpn % sets_);
        // Way 0 keeps lru 0 until its set's first insert (see reset).
        if (entries_[static_cast<size_t>(set) * ways_].lru == 0)
            touchedSets_.push_back(set);
        Entry *victim = nullptr;
        for (unsigned w = 0; w < ways_; ++w) {
            Entry &e = entries_[static_cast<size_t>(set) * ways_ + w];
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (!victim || e.lru < victim->lru)
                victim = &e;
        }
        victim->valid = true;
        victim->vpn = vpn;
        victim->lru = ++tick_;
    }

    void
    flush()
    {
        for (auto &e : entries_)
            e.valid = false;
    }

    const TlbStats &stats() const { return stats_; }
    unsigned hitLatency() const { return cfg_.hitLatency; }

  private:
    struct Entry
    {
        bool valid = false;
        Addr vpn = 0;
        uint64_t lru = 0;
    };
    TlbCfg cfg_;
    unsigned sets_, ways_;
    std::vector<Entry> entries_;
    std::vector<unsigned> touchedSets_; ///< inserted since reset()
    uint64_t tick_ = 0;
    TlbStats stats_;
};

/** Two-level TLB path: L1 (I or D) backed by the shared STLB and a
 *  page-table walker with a fixed walk latency. */
class TlbPath
{
  public:
    TlbPath(const TlbCfg &l1, TimingTlb &stlb, unsigned walkLatency)
        : l1_(l1), stlb_(stlb), walkLatency_(walkLatency)
    {
    }

    /** Latency to translate the page containing @p vaddr.
     *  @param walked  optional out: set when a page-table walk ran
     *                 (both TLB levels missed) */
    unsigned
    access(Addr vaddr, bool *walked = nullptr)
    {
        Addr vpn = vaddr >> 12;
        if (l1_.lookup(vpn))
            return l1_.hitLatency();
        unsigned lat = l1_.hitLatency() + 2; // STLB lookup
        if (!stlb_.lookup(vpn)) {
            lat += walkLatency_;
            stlb_.insert(vpn);
            if (walked)
                *walked = true;
        }
        l1_.insert(vpn);
        return lat;
    }

    void flush() { l1_.flush(); }

    /** Power-on state of the L1 level (the shared STLB resets with
     *  its owner). */
    void reset() { l1_.reset(); }

    TimingTlb &l1() { return l1_; }

  private:
    TimingTlb l1_;
    TimingTlb &stlb_;
    unsigned walkLatency_;
};

} // namespace minjie::uarch

#endif // MINJIE_UARCH_TLB_H
