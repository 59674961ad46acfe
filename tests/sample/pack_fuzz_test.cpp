/**
 * @file
 * `.mjk` reader robustness: a small pack opened at every truncation
 * length and with seeded single-bit flips. The reader must never
 * crash; each input is either rejected (by openMemory or restoreInto)
 * or restores pages that lie inside DRAM and read back in full. Run it
 * under ASan/UBSan to catch out-of-bounds reads of the pack buffer.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "checkpoint/generator.h"
#include "common/rng.h"
#include "sample/store.h"

namespace {

using namespace minjie;

constexpr Addr DRAM_BASE = 0x80000000;
constexpr uint64_t DRAM_SIZE = 1ULL << 26;

/** Restored page bytes are folded in here so the reads stay. */
volatile uint64_t g_sink = 0;

const std::vector<uint8_t> &
smallPack()
{
    static const std::vector<uint8_t> pack = sample::packFromGen(
        checkpoint::generateCheckpoints(workload::coremarkProxy(200),
                                        20'000, 4, 10'000'000));
    return pack;
}

struct Outcome
{
    bool opened = false;
    size_t claimed = 0;  ///< checkpoints the header announces
    size_t restored = 0; ///< of those, how many restored

    bool rejected() const { return !opened || restored < claimed; }
};

/** Open @p bytes and restore every checkpoint it claims to hold. */
Outcome
openAndRestoreAll(std::vector<uint8_t> bytes)
{
    Outcome o;
    sample::PackReader r;
    o.opened = r.openMemory(std::move(bytes));
    o.claimed = r.count();
    for (size_t i = 0; i < o.claimed; ++i) {
        iss::ArchState st;
        mem::PhysMem m(DRAM_BASE, DRAM_SIZE);
        if (!r.restoreInto(i, st, m))
            continue;
        ++o.restored;
        uint64_t sum = 0;
        m.forEachPage([&](Addr base, const uint8_t *data) {
            EXPECT_TRUE(m.contains(base, mem::PhysMem::PAGE_SIZE))
                << std::hex << base;
            for (size_t b = 0; b < mem::PhysMem::PAGE_SIZE; b += 64)
                sum += data[b];
            sum += data[mem::PhysMem::PAGE_SIZE - 1];
        });
        g_sink = g_sink + sum;
    }
    return o;
}

TEST(PackFuzz, EveryTruncationIsRejectedOrRestoresInBounds)
{
    const auto &good = smallPack();
    ASSERT_FALSE(good.empty());
    auto whole = openAndRestoreAll(good);
    ASSERT_FALSE(whole.rejected());
    ASSERT_GE(whole.restored, 2u);
    for (size_t len = 0; len < good.size(); ++len) {
        std::vector<uint8_t> cut(good.begin(),
                                 good.begin() + static_cast<ptrdiff_t>(len));
        // The page pool ends the file, so no strict prefix is whole.
        EXPECT_EQ(openAndRestoreAll(std::move(cut)).restored, 0u)
            << "len " << len;
    }
}

TEST(PackFuzz, SeededBitFlipsAreRejectedOrRestoreInBounds)
{
    const auto &good = smallPack();
    ASSERT_FALSE(good.empty());
    // Flip bits in the header, table, arch blobs and page entries: a
    // flip in the page pool only changes page contents.
    uint64_t poolOff = 0;
    std::memcpy(&poolOff, good.data() + 4 * 8, 8);
    ASSERT_GT(poolOff, 0u);
    ASSERT_LE(poolOff, good.size());

    Rng rng(0x6d6a6b);
    size_t rejected = 0;
    for (int n = 0; n < 256; ++n) {
        auto bad = good;
        uint64_t bit = rng.below(poolOff * 8);
        bad[bit / 8] = static_cast<uint8_t>(bad[bit / 8] ^ (1u << (bit % 8)));
        if (openAndRestoreAll(std::move(bad)).rejected())
            ++rejected;
    }
    // Header and page-entry fields are checked, so some flips must be
    // caught; the rest (weights, register values) restore.
    EXPECT_GT(rejected, 0u);
    EXPECT_LT(rejected, 256u);
}

} // namespace
