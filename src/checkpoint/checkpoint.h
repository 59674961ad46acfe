/**
 * @file
 * RISC-V architectural checkpoint format (paper Figure 9).
 *
 * A checkpoint captures exactly the architectural state plus the memory
 * image, and restores with no dependence on the RISC-V debug mode —
 * the property the paper highlights against Dromajo's format, enabling
 * early-stage processors to run checkpoints. Our restore path writes
 * the state directly into a simulator; a hardware bring-up path would
 * lower the same content to the basic RV64 privileged instructions of
 * Figure 9 (csrw/li sequences + memory preload).
 */

#ifndef MINJIE_CHECKPOINT_CHECKPOINT_H
#define MINJIE_CHECKPOINT_CHECKPOINT_H

#include <cstdint>
#include <vector>

#include "checkpoint/pagepool.h"
#include "iss/arch_state.h"
#include "mem/physmem.h"

namespace minjie::checkpoint {

/** One serialized checkpoint. */
struct Checkpoint
{
    std::vector<uint8_t> bytes;

    /** Instructions executed before this checkpoint was taken. */
    uint64_t instCount = 0;
    /** SimPoint weight (fraction of execution it represents). */
    double weight = 1.0;

    bool valid() const { return !bytes.empty(); }
};

/**
 * Byte size of the fixed architectural-state header that starts every
 * checkpoint image (magic through the CSR block, memory excluded).
 * A CheckpointSet keeps this header per checkpoint and the memory in
 * its shared page pool.
 */
size_t archHeaderBytes();

/** Append just the architectural-state header for @p state to @p v. */
void serializeArch(std::vector<uint8_t> &v, const iss::ArchState &state);

/**
 * Decode an architectural-state header at @p data into @p state.
 * @return false when @p len is short or the magic does not match.
 */
bool restoreArch(const uint8_t *data, size_t len, iss::ArchState &state);

/** Serialize @p state and every allocated page of @p mem. All-zero
 *  pages are elided from the image; restore() re-creates them as
 *  zero-fill on first touch. */
Checkpoint serialize(const iss::ArchState &state,
                     const mem::PhysMem &mem, uint64_t instCount = 0);

/**
 * Restore @p cp into @p state / @p mem.
 * @return false on a malformed image.
 */
bool restore(const Checkpoint &cp, iss::ArchState &state,
             mem::PhysMem &mem);

/** One page of a pooled checkpoint: guest base and pool index. */
struct PageRef
{
    Addr base = 0;
    uint32_t idx = 0;
};

/**
 * The checkpoints of one program over one shared PagePool: each
 * distinct non-zero page is stored once, however many checkpoints hold
 * it, and no checkpoint owns a standalone image.
 */
class CheckpointSet
{
  public:
    struct Entry
    {
        /** Instructions executed before this checkpoint was taken. */
        uint64_t instCount = 0;
        /** SimPoint weight (fraction of execution it represents). */
        double weight = 1.0;
        std::vector<uint8_t> arch;  ///< serializeArch() header
        std::vector<PageRef> pages; ///< non-zero pages, ascending base
    };

    /** Resize to @p n slots; new slots are empty until captured. */
    void resize(size_t n) { entries_.resize(n); }

    /**
     * Snapshot @p state and every non-zero page of @p mem into slot
     * @p i, interning the pages into the pool. A page that still holds
     * what the previous capture pooled for its address costs one
     * compare and no hash.
     */
    void capture(size_t i, const iss::ArchState &state,
                 const mem::PhysMem &mem, uint64_t instCount);

    /** Append a standalone image. @return false if it is malformed. */
    bool add(const Checkpoint &cp);

    /** The standalone image of checkpoint @p i: the bytes serialize()
     *  gives for its state and memory. */
    Checkpoint image(size_t i) const;

    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    Entry &operator[](size_t i) { return entries_[i]; }
    const Entry &operator[](size_t i) const { return entries_[i]; }
    auto begin() const { return entries_.begin(); }
    auto end() const { return entries_.end(); }
    const PagePool &pool() const { return pool_; }

  private:
    std::vector<Entry> entries_;
    PagePool pool_;
    size_t last_ = SIZE_MAX; ///< slot captured most recently
};

/**
 * Restore checkpoint @p i of @p set into @p state / @p mem (copying
 * its pages; elided zero pages read back as zero-fill).
 * @return false on a malformed entry.
 */
bool restore(const CheckpointSet &set, size_t i, iss::ArchState &state,
             mem::PhysMem &mem);

} // namespace minjie::checkpoint

#endif // MINJIE_CHECKPOINT_CHECKPOINT_H
