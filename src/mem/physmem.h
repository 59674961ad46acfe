/**
 * @file
 * Sparse physical memory backing the simulated DRAM.
 */

#ifndef MINJIE_MEM_PHYSMEM_H
#define MINJIE_MEM_PHYSMEM_H

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"

namespace minjie::mem {

/**
 * Byte-addressable sparse memory. Pages are allocated on first touch so
 * a 16 GB guest-physical space costs only what the workload dirties —
 * this is also what makes LightSSS fork()/COW snapshots cheap. A
 * restored checkpoint may instead borrow read-only pages
 * (borrowPages()); each is copied in on its first touch.
 */
class PhysMem
{
  public:
    static constexpr unsigned PAGE_SHIFT = 12;
    static constexpr Addr PAGE_SIZE = 1ULL << PAGE_SHIFT;
    static constexpr Addr PAGE_MASK = PAGE_SIZE - 1;

    /** @param base  lowest valid address  @param size  bytes of DRAM */
    PhysMem(Addr base, uint64_t size) : base_(base), size_(size) {}

    Addr base() const { return base_; }
    uint64_t size() const { return size_; }

    bool
    contains(Addr addr, unsigned bytes = 1) const
    {
        return addr >= base_ && addr + bytes <= base_ + size_;
    }

    /**
     * Read @p size bytes (1/2/4/8) at @p addr into @p data.
     * Misaligned and page-crossing accesses are handled bytewise.
     * @return false if the range is outside DRAM.
     */
    bool
    read(Addr addr, unsigned size, uint64_t &data)
    {
        if (!contains(addr, size))
            return false;
        uint8_t *p = pagePtr(addr);
        if (((addr & PAGE_MASK) + size) <= PAGE_SIZE) {
            data = 0;
            std::memcpy(&data, p, size);
        } else {
            data = 0;
            for (unsigned i = 0; i < size; ++i)
                data |= static_cast<uint64_t>(*bytePtr(addr + i)) << (8 * i);
        }
        return true;
    }

    /** Write @p size bytes of @p data at @p addr. */
    bool
    write(Addr addr, unsigned size, uint64_t data)
    {
        if (!contains(addr, size))
            return false;
        uint8_t *p = pagePtr(addr);
        if (((addr & PAGE_MASK) + size) <= PAGE_SIZE) {
            std::memcpy(p, &data, size);
        } else {
            for (unsigned i = 0; i < size; ++i)
                *bytePtr(addr + i) = static_cast<uint8_t>(data >> (8 * i));
        }
        return true;
    }

    /** Bulk copy-in (program loader, checkpoint and snapshot
     *  restore): one memcpy per page span. */
    void
    load(Addr addr, const void *src, size_t len)
    {
        const auto *s = static_cast<const uint8_t *>(src);
        while (len) {
            size_t n = std::min<size_t>(len, PAGE_SIZE - (addr & PAGE_MASK));
            std::memcpy(bytePtr(addr), s, n);
            addr += n;
            s += n;
            len -= n;
        }
    }

    /** One borrowed page: its guest base and PAGE_SIZE host bytes. */
    using BackingPage = std::pair<Addr, const uint8_t *>;

    /**
     * Drop all contents, then back the memory with read-only host
     * pages: a backed page reads as its host bytes and is copied in on
     * first touch, so writes never reach the source. The memory
     * borrows the pages until the next clear(); their owner must
     * outlive it. @p pages must be page-aligned and strictly ascending
     * by base.
     */
    void
    borrowPages(std::vector<BackingPage> pages)
    {
        clear();
        backing_ = std::move(pages);
    }

    /**
     * Host pointer to the page containing @p addr (allocating it). Valid
     * until the next snapshot/restore; used by the fast interpreters.
     */
    uint8_t *pagePtr(Addr addr) { return bytePtr(addr); }

    /**
     * Stable host base pointer of the whole 4K page containing @p addr,
     * or nullptr when that page is not fully inside DRAM. The pointer
     * stays valid until clear() — check epoch() across snapshot/restore
     * boundaries before reusing cached pointers.
     */
    uint8_t *
    hostPage(Addr addr)
    {
        Addr pageBase = addr & ~PAGE_MASK;
        if (!contains(pageBase, PAGE_SIZE))
            return nullptr;
        return bytePtr(pageBase);
    }

    /** Bumped by clear(); invalidates every previously returned page
     *  pointer (hostPage/pagePtr). */
    uint64_t epoch() const { return epoch_; }

    /** Number of pages with contents: allocated or borrowed. */
    size_t
    allocatedPages() const
    {
        return pages_.size() + backing_.size() - backedTouched_;
    }

    /**
     * Visit every allocated or borrowed page in ascending address
     * order (for checkpoints and SSS snapshots). Sorted visitation is
     * load-bearing: consumers serialize the pages, and two runs that
     * touched the same pages in different orders must produce
     * identical images.
     */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        std::vector<Addr> pfns = allocatedPfns();
        // Merge with the (sorted) backing table; a touched backed page
        // is visited once, through its allocated copy.
        size_t b = 0;
        for (Addr pfn : pfns) {
            Addr base = pfn << PAGE_SHIFT;
            for (; b < backing_.size() && backing_[b].first <= base; ++b)
                if (backing_[b].first < base)
                    fn(backing_[b].first, backing_[b].second);
            fn(base, pages_.find(pfn)->second->data());
        }
        for (; b < backing_.size(); ++b)
            fn(backing_[b].first, backing_[b].second);
    }

    /**
     * Visit, in ascending address order, only the pages allocated since
     * the last clear(): those written or read, including borrowed pages
     * copied in on first touch. Untouched borrowed pages are skipped.
     */
    template <typename Fn>
    void
    forEachAllocatedPage(Fn &&fn) const
    {
        for (Addr pfn : allocatedPfns())
            fn(pfn << PAGE_SHIFT, pages_.find(pfn)->second->data());
    }

    /** Drop all contents and any borrowed pages (used when restoring
     *  a checkpoint). */
    void
    clear()
    {
        pages_.clear();
        backing_.clear();
        backedTouched_ = 0;
        lastPfn_ = ~0ULL;
        lastPage_ = nullptr;
        ++epoch_;
    }

  private:
    using Page = std::vector<uint8_t>;

    /** Frame numbers of the allocated pages, ascending. */
    std::vector<Addr>
    allocatedPfns() const
    {
        std::vector<Addr> pfns;
        pfns.reserve(pages_.size());
        // lint:allow MJ-DET2-001 keys are sorted below before any visit
        for (const auto &[pfn, page] : pages_)
            pfns.push_back(pfn);
        std::sort(pfns.begin(), pfns.end());
        return pfns;
    }

    uint8_t *
    bytePtr(Addr addr)
    {
        Addr pfn = addr >> PAGE_SHIFT;
        if (pfn != lastPfn_) {
            auto &slot = pages_[pfn];
            if (!slot)
                slot = newPage(pfn << PAGE_SHIFT);
            lastPfn_ = pfn;
            lastPage_ = slot->data();
        }
        return lastPage_ + (addr & PAGE_MASK);
    }

    /**
     * First touch of the page at @p base: a copy of its borrowed bytes,
     * else zeros. Kept out of line so bytePtr() stays small enough to
     * inline into every memory access.
     */
    [[gnu::noinline]] std::unique_ptr<Page>
    newPage(Addr base)
    {
        auto it = std::lower_bound(
            backing_.begin(), backing_.end(), base,
            [](const BackingPage &p, Addr a) { return p.first < a; });
        if (it == backing_.end() || it->first != base)
            return std::make_unique<Page>(PAGE_SIZE, 0);
        ++backedTouched_;
        return std::make_unique<Page>(it->second, it->second + PAGE_SIZE);
    }

    Addr base_;
    uint64_t size_;
    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
    Addr lastPfn_ = ~0ULL;
    uint8_t *lastPage_ = nullptr;
    uint64_t epoch_ = 0;
    /** Borrowed read-only pages, sorted by base; see borrowPages(). */
    std::vector<BackingPage> backing_;
    /** Backed pages already copied into pages_. */
    size_t backedTouched_ = 0;
};

} // namespace minjie::mem

#endif // MINJIE_MEM_PHYSMEM_H
