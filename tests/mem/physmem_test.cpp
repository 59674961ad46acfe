#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mem/physmem.h"

namespace {

using namespace minjie;
using mem::PhysMem;

TEST(PhysMem, ReadWriteAllSizes)
{
    PhysMem pm(0x80000000, 1 << 20);
    for (unsigned size : {1u, 2u, 4u, 8u}) {
        uint64_t wrote = 0x1122334455667788ULL;
        ASSERT_TRUE(pm.write(0x80000100, size, wrote));
        uint64_t got = ~0ULL;
        ASSERT_TRUE(pm.read(0x80000100, size, got));
        uint64_t mask = size == 8 ? ~0ULL : ((1ULL << (size * 8)) - 1);
        EXPECT_EQ(got, wrote & mask) << size;
    }
}

TEST(PhysMem, OutOfRangeRejected)
{
    PhysMem pm(0x80000000, 4096);
    uint64_t v;
    EXPECT_FALSE(pm.read(0x7fffffff, 1, v));
    EXPECT_FALSE(pm.read(0x80001000, 1, v));
    EXPECT_FALSE(pm.read(0x80000ffd, 8, v)); // straddles the end
    EXPECT_TRUE(pm.read(0x80000ff8, 8, v));
}

TEST(PhysMem, PageCrossingAccess)
{
    PhysMem pm(0x80000000, 1 << 20);
    // 8-byte write straddling a 4K page boundary.
    ASSERT_TRUE(pm.write(0x80000ffc, 8, 0xaabbccdd11223344ULL));
    uint64_t got;
    ASSERT_TRUE(pm.read(0x80000ffc, 8, got));
    EXPECT_EQ(got, 0xaabbccdd11223344ULL);
    // The two halves live on different pages.
    pm.read(0x80001000, 4, got);
    EXPECT_EQ(got, 0xaabbccddULL);
}

TEST(PhysMem, SparseAllocation)
{
    PhysMem pm(0x80000000, 1ULL << 32); // 4 GB space
    EXPECT_EQ(pm.allocatedPages(), 0u);
    pm.write(0x80000000, 8, 1);
    pm.write(0x80000000 + (1ULL << 30), 8, 2); // 1 GB away
    EXPECT_EQ(pm.allocatedPages(), 2u);
    uint64_t v;
    pm.read(0x80000000 + (1ULL << 30), 8, v);
    EXPECT_EQ(v, uint64_t{2});
}

TEST(PhysMem, UntouchedReadsZero)
{
    PhysMem pm(0x80000000, 1 << 20);
    uint64_t v = ~0ULL;
    ASSERT_TRUE(pm.read(0x80055000, 8, v));
    EXPECT_EQ(v, 0u);
}

TEST(PhysMem, LoadBulkAndIterate)
{
    PhysMem pm(0x80000000, 1 << 20);
    std::vector<uint8_t> blob(10000);
    for (size_t i = 0; i < blob.size(); ++i)
        blob[i] = static_cast<uint8_t>(i * 7);
    pm.load(0x80000800, blob.data(), blob.size());

    uint64_t v;
    pm.read(0x80000800 + 9999, 1, v);
    EXPECT_EQ(v, static_cast<uint8_t>(9999 * 7));

    size_t pages = 0;
    pm.forEachPage([&](Addr, const uint8_t *) { ++pages; });
    EXPECT_EQ(pages, pm.allocatedPages());

    pm.clear();
    EXPECT_EQ(pm.allocatedPages(), 0u);
    pm.read(0x80000800, 1, v);
    EXPECT_EQ(v, 0u);
}

TEST(PhysMem, LoadSpansPagesAtAnyOffset)
{
    // load() copies one span per page; every byte must land where the
    // bytewise copy put it, across page edges and at odd offsets.
    PhysMem pm(0x80000000, 1 << 20);
    std::vector<uint8_t> blob(3 * 4096 + 5);
    for (size_t i = 0; i < blob.size(); ++i)
        blob[i] = static_cast<uint8_t>(i * 13 + 1);
    pm.load(0x80000ffd, blob.data(), blob.size());
    for (size_t i = 0; i < blob.size(); ++i) {
        uint64_t v = 0;
        pm.read(0x80000ffd + i, 1, v);
        ASSERT_EQ(v, blob[i]) << i;
    }
    EXPECT_EQ(pm.allocatedPages(), 5u);
}

TEST(PhysMem, BorrowedPagesReadThroughAndCopyOnWrite)
{
    std::vector<uint8_t> a(4096, 0x11), b(4096, 0x22);
    PhysMem pm(0x80000000, 1 << 20);
    pm.write(0x80005000, 8, 7); // dropped by borrowPages
    pm.borrowPages({{0x80001000, a.data()}, {0x80003000, b.data()}});
    EXPECT_EQ(pm.allocatedPages(), 2u);

    uint64_t v = 0;
    ASSERT_TRUE(pm.read(0x80003008, 8, v));
    EXPECT_EQ(v, 0x2222222222222222ULL); // the source's bytes
    pm.read(0x80005000, 8, v);
    EXPECT_EQ(v, 0u);

    ASSERT_TRUE(pm.write(0x80001000, 4, 0xdeadbeef));
    pm.read(0x80001000, 8, v);
    EXPECT_EQ(v, 0x11111111deadbeefULL);
    EXPECT_EQ(a[0], 0x11); // the source is never written
    // The touched backed page counts once; the read above allocated
    // a zero page at 0x80005000.
    EXPECT_EQ(pm.allocatedPages(), 3u);
}

TEST(PhysMem, ForEachPageVisitsUnionInAddressOrder)
{
    std::vector<uint8_t> a(4096, 0xaa), c(4096, 0xcc);
    PhysMem pm(0x80000000, 1 << 20);
    pm.borrowPages({{0x80001000, a.data()}, {0x80003000, c.data()}});
    pm.write(0x80003000, 1, 0x01); // touched: visited via its copy
    pm.write(0x80002000, 1, 0x02); // allocated, never backed
    pm.write(0x80000000, 1, 0x03);

    std::vector<std::pair<Addr, uint8_t>> seen;
    pm.forEachPage([&](Addr base, const uint8_t *data) {
        seen.emplace_back(base, data[0]);
    });
    std::vector<std::pair<Addr, uint8_t>> want = {
        {0x80000000, 0x03},
        {0x80001000, 0xaa},
        {0x80002000, 0x02},
        {0x80003000, 0x01},
    };
    EXPECT_EQ(seen, want);
    EXPECT_EQ(pm.allocatedPages(), want.size());
}

TEST(PhysMem, ClearDropsBorrowedPages)
{
    std::vector<uint8_t> a(4096, 0x5a);
    PhysMem pm(0x80000000, 1 << 20);
    pm.borrowPages({{0x80001000, a.data()}});
    pm.clear();
    EXPECT_EQ(pm.allocatedPages(), 0u);
    size_t pages = 0;
    pm.forEachPage([&](Addr, const uint8_t *) { ++pages; });
    EXPECT_EQ(pages, 0u);
    uint64_t v = ~0ULL;
    pm.read(0x80001000, 8, v);
    EXPECT_EQ(v, 0u);
}

} // namespace
