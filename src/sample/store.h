/**
 * @file
 * The `.mjk` checkpoint pack: an on-disk, mmap-able store holding every
 * SimPoint checkpoint of one workload behind a single deduplicated page
 * pool.
 *
 * The pack stores each distinct page once — the checkpoints' shared
 * checkpoint::PagePool, zero pages elided entirely — and the reader
 * maps the file read-only. A restored slice borrows its pages from
 * that one copy and copies in only the pages its window touches.
 *
 * Weights are stored as exact integers (numerator over a common
 * denominator, the SimPoint interval count): the reduction then runs in
 * pure uint64 arithmetic, which is what makes the weighted top-down
 * stack byte-identical across worker counts.
 *
 * Layout (all fields little-endian u64, offsets from file start):
 *
 *   header:    magic, version, nCheckpoints, weightDen,
 *              pagePoolOff, nPoolPages
 *   table:     nCheckpoints x {instCount, weightNum,
 *              archOff, pageEntryOff, nPageEntries}
 *   arch blobs and page-entry arrays ({baseAddr, poolIdx} pairs)
 *   page pool: 4096-aligned, nPoolPages x 4096 bytes, deduplicated
 */

#ifndef MINJIE_SAMPLE_STORE_H
#define MINJIE_SAMPLE_STORE_H

#include <cstdint>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "iss/arch_state.h"
#include "mem/physmem.h"

namespace minjie::checkpoint {
struct GenResult;
}

namespace minjie::sample {

/** Builds a pack in memory from standalone checkpoint images. */
class PackWriter
{
  public:
    /** @param weightDen common weight denominator (SimPoint interval
     *  count); every added checkpoint's weight is weightNum/weightDen. */
    explicit PackWriter(uint64_t weightDen) : weightDen_(weightDen) {}

    /**
     * Add one serialized checkpoint. The image is split at the
     * architectural-header boundary; its memory pages are interned
     * into the shared pool.
     * @return false if @p cp is malformed.
     */
    bool
    add(const checkpoint::Checkpoint &cp, uint64_t weightNum)
    {
        if (!set_.add(cp))
            return false;
        weightNums_.push_back(weightNum);
        totalRefs_ += set_[set_.size() - 1].pages.size();
        return true;
    }

    /** Serialize the pack to bytes (deterministic for equal input). */
    std::vector<uint8_t> bytes() const;

    size_t checkpointCount() const { return set_.size(); }
    /** Distinct pages stored (after dedup + zero elision). */
    size_t poolPages() const { return set_.pool().size(); }
    /** Page references across all checkpoints (before dedup). */
    size_t totalPageRefs() const { return totalRefs_; }

  private:
    uint64_t weightDen_;
    checkpoint::CheckpointSet set_;
    std::vector<uint64_t> weightNums_;
    size_t totalRefs_ = 0;
};

/** Read-only view of a pack: either an mmap of the file or an owned
 *  byte buffer. Safe to read from many threads at once. */
class PackReader
{
  public:
    PackReader() = default;
    ~PackReader();
    PackReader(PackReader &&other) noexcept { *this = std::move(other); }
    PackReader &operator=(PackReader &&other) noexcept;
    PackReader(const PackReader &) = delete;
    PackReader &operator=(const PackReader &) = delete;

    /** mmap @p path read-only. @return false on I/O or format error. */
    bool openFile(const std::string &path);

    /** Adopt an in-memory pack (tests, or writer-to-engine handoff). */
    bool openMemory(std::vector<uint8_t> bytes);

    bool valid() const { return data_ != nullptr; }
    size_t count() const { return nCheckpoints_; }
    uint64_t weightDen() const { return weightDen_; }
    uint64_t weightNum(size_t i) const;
    uint64_t instCount(size_t i) const;
    /** weightNum/weightDen as a double (reporting only — the
     *  reduction itself never leaves integer arithmetic). */
    double weight(size_t i) const;

    /** Restore checkpoint @p i into @p state / @p mem. Replaces the
     *  contents of @p mem; elided zero pages read back as zero-fill.
     *  @p mem borrows this pack's pool pages (PhysMem::borrowPages)
     *  until its next clear(), so the pack must outlive that use.
     *  @return false on a malformed entry (pool index out of range,
     *  unaligned, unsorted or out-of-DRAM page base). */
    bool restoreInto(size_t i, iss::ArchState &state,
                     mem::PhysMem &mem) const;

    size_t poolPages() const { return nPoolPages_; }
    size_t sizeBytes() const { return len_; }

  private:
    bool parse();
    void close();
    const uint8_t *tableEntry(size_t i) const;

    const uint8_t *data_ = nullptr;
    size_t len_ = 0;
    int fd_ = -1;               ///< >= 0 when mmap-backed
    std::vector<uint8_t> own_; ///< backing store for openMemory

    size_t nCheckpoints_ = 0;
    uint64_t weightDen_ = 0;
    uint64_t pagePoolOff_ = 0;
    uint64_t nPoolPages_ = 0;
};

/**
 * Pack a generator result, recovering SimPoint's exact integer weights
 * (clusterSize over intervalCount) from the fractional ones. The pages
 * are already pooled; this only lays the pool out.
 * @return the serialized pack; empty when @p gen holds no checkpoints.
 */
std::vector<uint8_t> packFromGen(const checkpoint::GenResult &gen);

} // namespace minjie::sample

#endif // MINJIE_SAMPLE_STORE_H
