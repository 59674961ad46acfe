/**
 * @file
 * Sampled-simulation engine tests: the .mjk pack store (dedup, mmap,
 * exact integer weights, borrowed-page restore) and the threaded
 * evaluation engine (worker-count invariance, failed-slice isolation,
 * warmup semantics).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "checkpoint/generator.h"
#include "iss/system.h"
#include "nemu/nemu.h"
#include "sample/engine.h"
#include "sample/store.h"

namespace {

using namespace minjie;
namespace wl = minjie::workload;
namespace cp = minjie::checkpoint;

/** Small deterministic pack shared by the engine tests. */
cp::GenResult
makeGen(uint64_t iters = 200, InstCount interval = 20'000)
{
    auto prog = wl::coremarkProxy(iters);
    return cp::generateCheckpoints(prog, interval, 4, 10'000'000);
}

sample::PackReader
makePack(const cp::GenResult &gen)
{
    sample::PackReader pack;
    EXPECT_TRUE(pack.openMemory(sample::packFromGen(gen)));
    return pack;
}

TEST(SampleStore, PackRoundtripMatchesCheckpointRestore)
{
    auto gen = makeGen();
    ASSERT_GE(gen.checkpoints.size(), 1u);
    auto pack = makePack(gen);
    ASSERT_EQ(pack.count(), gen.checkpoints.size());

    for (size_t i = 0; i < pack.count(); ++i) {
        iss::ArchState a, b;
        mem::PhysMem memA(0x80000000, 1 << 26);
        mem::PhysMem memB(0x80000000, 1 << 26);
        ASSERT_TRUE(cp::restore(gen.checkpoints, i, a, memA));
        ASSERT_TRUE(pack.restoreInto(i, b, memB));

        EXPECT_EQ(a.pc, b.pc) << "checkpoint " << i;
        EXPECT_EQ(a.instret, b.instret);
        for (int r = 0; r < 32; ++r) {
            EXPECT_EQ(a.x[r], b.x[r]) << "x" << r;
            EXPECT_EQ(a.f[r], b.f[r]) << "f" << r;
        }
        EXPECT_EQ(a.csr.mstatus, b.csr.mstatus);
        EXPECT_EQ(a.csr.satp, b.csr.satp);
        // Memory equality including zero-elided pages.
        for (Addr addr = 0x80000000; addr < 0x80000000 + 0x40000;
             addr += 0x1000) {
            uint64_t va = 0, vb = 0;
            memA.read(addr, 8, va);
            memB.read(addr, 8, vb);
            ASSERT_EQ(va, vb) << std::hex << addr;
        }
        EXPECT_EQ(pack.instCount(i), gen.checkpoints[i].instCount);
    }
}

/** FNV-1a, 64-bit, over every byte. */
uint64_t
fnv1a(const std::vector<uint8_t> &bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint8_t b : bytes)
        h = (h ^ b) * 0x100000001b3ULL;
    return h;
}

TEST(SampleStore, PackBytesMatchGoldenHashes)
{
    // Pinned when every checkpoint was a standalone serialized image
    // and the pack writer re-hashed its pages: interning pages at
    // capture time must lay out the identical file.
    auto spec = [](const char *name) {
        for (const auto *suite : {&wl::specIntSuite(), &wl::specFpSuite()})
            for (const auto &s : *suite)
                if (std::string(s.name) == name)
                    return s;
        ADD_FAILURE() << name;
        return wl::ProxySpec{};
    };
    struct Golden
    {
        wl::Program prog;
        InstCount interval;
        unsigned maxK;
        size_t size;
        uint64_t hash;
    };
    const Golden golden[] = {
        {wl::coremarkProxy(200), 20'000, 4, 49152, 0xa9510def1a70aafbULL},
        {wl::buildProxy(spec("429.mcf"), 300, 1), 20'000, 4, 14643200,
         0xd5807e7186d52b9cULL},
        {wl::buildProxy(spec("458.sjeng"), 300, 3), 20'000, 4, 839680,
         0x0e2c39bf98aa272bULL},
        {wl::buildProxy(spec("403.gcc"), 300, 1), 10'000, 6, 1515520,
         0x0b9f802125136968ULL},
    };
    for (const auto &g : golden) {
        auto bytes = sample::packFromGen(cp::generateCheckpoints(
            g.prog, g.interval, g.maxK, 10'000'000));
        EXPECT_EQ(bytes.size(), g.size) << g.prog.name;
        EXPECT_EQ(fnv1a(bytes), g.hash) << g.prog.name;
    }
}

TEST(SampleStore, WeightsAreExactIntegersSummingToOne)
{
    auto gen = makeGen();
    auto pack = makePack(gen);
    uint64_t sum = 0;
    for (size_t i = 0; i < pack.count(); ++i)
        sum += pack.weightNum(i);
    // SimPoint weights are clusterSize/nIntervals: numerators must
    // sum exactly to the common denominator (total intervals).
    EXPECT_EQ(sum, pack.weightDen());
    for (size_t i = 0; i < pack.count(); ++i)
        EXPECT_NEAR(pack.weight(i), gen.checkpoints[i].weight, 1e-12);
}

TEST(SampleStore, DedupsPagesAcrossCheckpoints)
{
    // Checkpoints of the same program share most of their image (code
    // pages, untouched data); the pool must store those pages once.
    auto gen = makeGen(400);
    ASSERT_GE(gen.checkpoints.size(), 2u);

    sample::PackWriter w(gen.simpoints.assignment.size());
    size_t rawBytes = 0;
    for (size_t i = 0; i < gen.checkpoints.size(); ++i) {
        auto img = gen.checkpoints.image(i);
        ASSERT_TRUE(w.add(img, 1));
        rawBytes += img.bytes.size();
    }
    // The generator's own pool holds the same distinct pages.
    EXPECT_EQ(gen.checkpoints.pool().size(), w.poolPages());
    EXPECT_LT(w.poolPages(), w.totalPageRefs())
        << "no page was shared between checkpoints";
    EXPECT_LT(w.bytes().size(), rawBytes)
        << "pack is not smaller than the per-checkpoint images";
}

TEST(SampleStore, MmapFileMatchesInMemory)
{
    auto gen = makeGen();
    auto bytes = sample::packFromGen(gen);

    sample::PackWriter w(gen.simpoints.assignment.size() == 0
                             ? 1
                             : gen.simpoints.assignment.size());
    std::string path = "sample_test_pack.mjk";
    {
        sample::PackReader mem;
        ASSERT_TRUE(mem.openMemory(bytes));
        // Write the identical bytes and mmap them back.
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);

        sample::PackReader file;
        ASSERT_TRUE(file.openFile(path));
        ASSERT_EQ(file.count(), mem.count());
        EXPECT_EQ(file.sizeBytes(), mem.sizeBytes());
        for (size_t i = 0; i < file.count(); ++i) {
            iss::ArchState a, b;
            mem::PhysMem ma(0x80000000, 1 << 26);
            mem::PhysMem mb(0x80000000, 1 << 26);
            ASSERT_TRUE(mem.restoreInto(i, a, ma));
            ASSERT_TRUE(file.restoreInto(i, b, mb));
            EXPECT_EQ(a.pc, b.pc);
            EXPECT_EQ(a.x[10], b.x[10]);
        }
    }
    std::remove(path.c_str());
}

TEST(SampleStore, SerializeAfterRestoreMatchesGenerator)
{
    // A restored slice borrows the pack's pages; serializing it must
    // give back the generator's image byte for byte, both as restored
    // and after NEMU has run on (and written into) the borrowed pages.
    auto gen = makeGen();
    auto pack = makePack(gen);
    ASSERT_EQ(pack.count(), gen.checkpoints.size());

    for (size_t i = 0; i < pack.count(); ++i) {
        iss::ArchState st;
        mem::PhysMem m(0x80000000, 1 << 26);
        ASSERT_TRUE(pack.restoreInto(i, st, m));
        EXPECT_EQ(cp::serialize(st, m).bytes,
                  gen.checkpoints.image(i).bytes)
            << "checkpoint " << i;

        // Warmup: the same 5000 NEMU instructions from the pack and
        // from the generator's own checkpoint.
        auto warm = [](auto &&restoreFn) {
            iss::System sys(64);
            nemu::Nemu nemu(sys.bus, sys.dram, 0, 0);
            EXPECT_TRUE(restoreFn(nemu.state(), sys.dram));
            nemu.flushUopCache();
            nemu.setHaltFn([&] { return sys.simctrl.exited(); });
            nemu.run(5'000);
            return cp::serialize(nemu.state(), sys.dram).bytes;
        };
        auto fromPack = warm([&](iss::ArchState &s, mem::PhysMem &pm) {
            return pack.restoreInto(i, s, pm);
        });
        auto fromGen = warm([&](iss::ArchState &s, mem::PhysMem &pm) {
            return cp::restore(gen.checkpoints, i, s, pm);
        });
        EXPECT_EQ(fromPack, fromGen) << "checkpoint " << i;
    }
}

TEST(SampleStore, RejectsUnsortedPageEntries)
{
    // Borrowed pages are looked up by binary search, so restore must
    // refuse a page table that is not strictly ascending.
    auto gen = makeGen();
    ASSERT_GE(gen.checkpoints.size(), 1u);
    sample::PackWriter w(1);
    ASSERT_TRUE(w.add(gen.checkpoints.image(0), 1));
    auto bytes = w.bytes();
    // Header (6 u64) then table entry {instCount, weightNum, archOff,
    // pageEntryOff, nPageEntries}: swap the first two page bases.
    uint64_t entryOff = 0, nEntries = 0;
    std::memcpy(&entryOff, bytes.data() + 6 * 8 + 3 * 8, 8);
    std::memcpy(&nEntries, bytes.data() + 6 * 8 + 4 * 8, 8);
    ASSERT_GE(nEntries, 2u);
    std::swap_ranges(bytes.begin() + static_cast<ptrdiff_t>(entryOff),
                     bytes.begin() + static_cast<ptrdiff_t>(entryOff + 8),
                     bytes.begin() + static_cast<ptrdiff_t>(entryOff + 16));

    sample::PackReader r;
    ASSERT_TRUE(r.openMemory(std::move(bytes)));
    iss::ArchState st;
    mem::PhysMem m(0x80000000, 1 << 26);
    EXPECT_FALSE(r.restoreInto(0, st, m));
}

TEST(SampleStore, RejectsCountsThatOverflow)
{
    // Header and table counts come from the file; a value whose
    // product with its element size wraps must be refused, not read.
    auto good = sample::packFromGen(makeGen());
    auto withU64 = [&](size_t off, uint64_t v) {
        auto b = good;
        std::memcpy(b.data() + off, &v, 8);
        return b;
    };
    sample::PackReader r;
    EXPECT_FALSE(r.openMemory(withU64(2 * 8, 1ULL << 61))); // nCheckpoints
    EXPECT_FALSE(r.openMemory(withU64(5 * 8, 1ULL << 60))); // nPoolPages

    // Table entry 0, nPageEntries: the header still parses, the
    // restore must fail.
    ASSERT_TRUE(r.openMemory(withU64(6 * 8 + 4 * 8, 1ULL << 60)));
    iss::ArchState st;
    mem::PhysMem m(0x80000000, 1 << 26);
    EXPECT_FALSE(r.restoreInto(0, st, m));
}

TEST(SampleStore, RejectsGarbageAndTruncation)
{
    sample::PackReader r;
    EXPECT_FALSE(r.openMemory(std::vector<uint8_t>(64, 0xab)));
    EXPECT_FALSE(r.openMemory({}));

    auto bytes = sample::packFromGen(makeGen());
    bytes.resize(bytes.size() / 2); // chop the page pool
    EXPECT_FALSE(r.openMemory(std::move(bytes)));
    EXPECT_FALSE(r.openFile("/nonexistent/pack.mjk"));
}

TEST(SampleEngine, WorkerCountInvariance)
{
    // The acceptance gate: weighted IPC and the merged top-down stack
    // must be byte-identical for any worker count on the same pack.
    auto gen = makeGen();
    auto pack = makePack(gen);

    sample::SampleConfig cfg;
    cfg.measureInsts = 3'000;
    cfg.maxCycles = 5'000'000;

    cfg.workers = 1;
    auto base = sample::runSampled(pack, cfg);
    ASSERT_TRUE(base.allOk());
    ASSERT_GT(base.weightedInstrs, 0u);
    EXPECT_TRUE(base.stack.sumsExactly());

    for (unsigned w : {2u, 3u, 8u}) {
        cfg.workers = w;
        auto rep = sample::runSampled(pack, cfg);
        ASSERT_TRUE(rep.allOk()) << w << " workers";
        // Byte-identical reduction: serialized counters and the
        // rendered stack, not just the scalar IPC.
        EXPECT_EQ(rep.weighted.toJson(), base.weighted.toJson())
            << w << " workers";
        EXPECT_EQ(rep.weightedCycles, base.weightedCycles);
        EXPECT_EQ(rep.weightedInstrs, base.weightedInstrs);
        EXPECT_EQ(rep.stack.table("t"), base.stack.table("t"));
        for (size_t i = 0; i < rep.slices.size(); ++i) {
            EXPECT_EQ(rep.slices[i].cycles, base.slices[i].cycles);
            EXPECT_EQ(rep.slices[i].counters, base.slices[i].counters);
        }
    }
}

TEST(SampleEngine, WeightedStackKeepsExactSum)
{
    auto pack = makePack(makeGen());
    sample::SampleConfig cfg;
    cfg.workers = 2;
    cfg.measureInsts = 3'000;
    auto rep = sample::runSampled(pack, cfg);
    ASSERT_TRUE(rep.allOk());
    // Integer weighting is linear, so the bucket partition survives:
    // sum_i w_i * (buckets_i) == sum_i w_i * cycles_i, exactly.
    EXPECT_TRUE(rep.stack.sumsExactly());
    EXPECT_EQ(rep.stack.cycles, rep.weightedCycles);
    EXPECT_EQ(rep.stack.instrs, rep.weightedInstrs);
    EXPECT_GT(rep.weightedIpc(), 0.0);
}

TEST(SampleEngine, FailedSliceIsIsolated)
{
    // A failed slice loses its own result and nothing else.
    auto pack = makePack(makeGen());
    ASSERT_GE(pack.count(), 2u);

    sample::SampleConfig cfg;
    cfg.workers = 2;
    cfg.measureInsts = 3'000;
    cfg.crashSliceForTest = 0;
    auto rep = sample::runSampled(pack, cfg);
    EXPECT_EQ(rep.failures, 1u);
    EXPECT_FALSE(rep.slices[0].ok);
    for (size_t i = 1; i < rep.slices.size(); ++i)
        EXPECT_TRUE(rep.slices[i].ok) << "slice " << i;
    // The reduction proceeds over the surviving slices.
    EXPECT_GT(rep.weightedInstrs, 0u);
    EXPECT_TRUE(rep.stack.sumsExactly());
}

TEST(SampleEngine, FunctionalWarmupAdvancesMeasurementPoint)
{
    auto gen = makeGen();
    auto pack = makePack(gen);

    sample::SampleConfig cold;
    cold.measureInsts = 3'000;
    auto a = sample::runSlice(pack, 0, cold);
    ASSERT_TRUE(a.ok);

    sample::SampleConfig warm = cold;
    warm.warmupInsts = 5'000;
    auto b = sample::runSlice(pack, 0, warm);
    ASSERT_TRUE(b.ok);

    // Both measure a full window; the warmed slice starts 5000
    // instructions later, so the windows differ.
    EXPECT_GE(a.instrs, cold.measureInsts);
    EXPECT_GE(b.instrs, cold.measureInsts);
    EXPECT_NE(a.counters, b.counters);
}

TEST(SampleEngine, ThreadedAndDirectSliceAgree)
{
    // A slice run on a pool thread and the same slice run directly on
    // the calling thread (the fallback when no thread can be started)
    // must agree for the invariance guarantee to hold.
    auto pack = makePack(makeGen());
    sample::SampleConfig cfg;
    cfg.measureInsts = 3'000;

    auto direct = sample::runSlice(pack, 0, cfg);
    ASSERT_TRUE(direct.ok);

    cfg.workers = 2; // threaded evaluation of the same slice
    auto rep = sample::runSampled(pack, cfg);
    ASSERT_TRUE(rep.slices[0].ok);
    EXPECT_EQ(rep.slices[0].cycles, direct.cycles);
    EXPECT_EQ(rep.slices[0].instrs, direct.instrs);
    EXPECT_EQ(rep.slices[0].counters, direct.counters);
}

} // namespace
