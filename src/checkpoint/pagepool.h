/**
 * @file
 * Content-deduplicated store of 4 KiB memory pages.
 *
 * The checkpoints of one program share most of their memory image
 * (code, untouched data). A PagePool stores each distinct page content
 * once and names it by a dense index; checkpoints refer to pages by
 * {guest base, pool index}. It is the one dedup path behind both
 * checkpoint generation (CheckpointSet::capture) and the `.mjk` pack
 * writer.
 */

#ifndef MINJIE_CHECKPOINT_PAGEPOOL_H
#define MINJIE_CHECKPOINT_PAGEPOOL_H

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/physmem.h"

namespace minjie::checkpoint {

class PagePool
{
  public:
    static constexpr size_t PAGE = mem::PhysMem::PAGE_SIZE;
    static constexpr uint32_t NONE = ~0u;

    /** Index of the pooled page equal to @p page, copying @p page in
     *  when no pooled page is. */
    uint32_t intern(const uint8_t *page);

    /**
     * intern() for a page that probably still equals pooled page
     * @p hint (what its address held at the previous snapshot): a
     * match costs one compare and no hash. @p hint may be NONE.
     */
    uint32_t
    intern(const uint8_t *page, uint32_t hint)
    {
        if (hint < count_ && std::memcmp(this->page(hint), page, PAGE) == 0)
            return hint;
        return intern(page);
    }

    /** Host bytes of pooled page @p idx (stable for the pool's life). */
    const uint8_t *
    page(uint32_t idx) const
    {
        return chunks_[idx / CHUNK].get() + size_t{idx % CHUNK} * PAGE;
    }

    /** Distinct pages stored. */
    size_t size() const { return count_; }

  private:
    /** Pages per allocation: growth never moves a stored page. */
    static constexpr uint32_t CHUNK = 256;

    std::vector<std::unique_ptr<uint8_t[]>> chunks_;
    uint32_t count_ = 0;
    /** Content hash -> newest page with that hash. */
    // lint:allow MJ-DET-003 lookup-only dedup index, never iterated
    std::unordered_map<uint64_t, uint32_t> byHash_;
    /** Page -> the previous page with the same hash, or NONE. */
    std::vector<uint32_t> sameHash_;
};

} // namespace minjie::checkpoint

#endif // MINJIE_CHECKPOINT_PAGEPOOL_H
