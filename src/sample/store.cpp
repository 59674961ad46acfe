#include "sample/store.h"

#include <cmath>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "checkpoint/generator.h"

namespace minjie::sample {

namespace {

constexpr uint64_t MAGIC = 0x4d4a504b30303031ULL; // "MJPK0001"
constexpr uint64_t VERSION = 1;
constexpr size_t HEADER_U64 = 6;
constexpr size_t TABLE_U64 = 5;
constexpr size_t PAGE = mem::PhysMem::PAGE_SIZE;

void
put64(std::vector<uint8_t> &v, uint64_t x)
{
    size_t off = v.size();
    v.resize(off + 8);
    std::memcpy(v.data() + off, &x, 8);
}

uint64_t
rd64(const uint8_t *p)
{
    uint64_t x;
    std::memcpy(&x, p, 8);
    return x;
}

/**
 * Lay @p set out as a pack. Pool pages are renumbered in first-seen
 * order (checkpoint order, then ascending page address), so the bytes
 * depend only on the checkpoints, not on the order they were captured.
 */
std::vector<uint8_t>
layout(const checkpoint::CheckpointSet &set,
       const std::vector<uint64_t> &weightNums, uint64_t weightDen)
{
    // Offsets: header, table, then per-checkpoint arch blob followed
    // by its page-entry array, then the page pool aligned to 4096.
    size_t n = set.size();
    uint64_t cursor = (HEADER_U64 + TABLE_U64 * n) * 8;
    std::vector<uint64_t> archOff(n), entryOff(n);
    std::vector<uint32_t> renum(set.pool().size(),
                                checkpoint::PagePool::NONE);
    std::vector<uint32_t> order; // pack pool index -> set pool index
    for (size_t i = 0; i < n; ++i) {
        archOff[i] = cursor;
        cursor += set[i].arch.size();
        entryOff[i] = cursor;
        cursor += set[i].pages.size() * 16;
        for (const auto &pg : set[i].pages) {
            if (renum[pg.idx] == checkpoint::PagePool::NONE) {
                renum[pg.idx] = static_cast<uint32_t>(order.size());
                order.push_back(pg.idx);
            }
        }
    }
    uint64_t poolOff = (cursor + PAGE - 1) / PAGE * PAGE;

    std::vector<uint8_t> out;
    out.reserve(poolOff + order.size() * PAGE);
    put64(out, MAGIC);
    put64(out, VERSION);
    put64(out, n);
    put64(out, weightDen);
    put64(out, poolOff);
    put64(out, order.size());
    for (size_t i = 0; i < n; ++i) {
        put64(out, set[i].instCount);
        put64(out, weightNums[i]);
        put64(out, archOff[i]);
        put64(out, entryOff[i]);
        put64(out, set[i].pages.size());
    }
    for (const auto &e : set) {
        out.insert(out.end(), e.arch.begin(), e.arch.end());
        for (const auto &pg : e.pages) {
            put64(out, pg.base);
            put64(out, renum[pg.idx]);
        }
    }
    out.resize(poolOff, 0);
    for (uint32_t idx : order) {
        const uint8_t *page = set.pool().page(idx);
        out.insert(out.end(), page, page + PAGE);
    }
    return out;
}

} // namespace

std::vector<uint8_t>
PackWriter::bytes() const
{
    return layout(set_, weightNums_, weightDen_);
}

PackReader::~PackReader()
{
    close();
}

PackReader &
PackReader::operator=(PackReader &&other) noexcept
{
    if (this != &other) {
        close();
        data_ = other.data_;
        len_ = other.len_;
        fd_ = other.fd_;
        own_ = std::move(other.own_);
        nCheckpoints_ = other.nCheckpoints_;
        weightDen_ = other.weightDen_;
        pagePoolOff_ = other.pagePoolOff_;
        nPoolPages_ = other.nPoolPages_;
        other.data_ = nullptr;
        other.len_ = 0;
        other.fd_ = -1;
        other.nCheckpoints_ = 0;
    }
    return *this;
}

void
PackReader::close()
{
    if (fd_ >= 0) {
        ::munmap(const_cast<uint8_t *>(data_), len_);
        ::close(fd_);
        fd_ = -1;
    }
    data_ = nullptr;
    len_ = 0;
    own_.clear();
    nCheckpoints_ = 0;
}

bool
PackReader::openFile(const std::string &path)
{
    close();
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
        ::close(fd);
        return false;
    }
    size_t len = static_cast<size_t>(st.st_size);
    void *p = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd, 0);
    if (p == MAP_FAILED) {
        ::close(fd);
        return false;
    }
    fd_ = fd;
    data_ = static_cast<const uint8_t *>(p);
    len_ = len;
    if (!parse()) {
        close();
        return false;
    }
    return true;
}

bool
PackReader::openMemory(std::vector<uint8_t> bytes)
{
    close();
    own_ = std::move(bytes);
    data_ = own_.data();
    len_ = own_.size();
    if (!parse()) {
        close();
        return false;
    }
    return true;
}

bool
PackReader::parse()
{
    if (len_ < HEADER_U64 * 8 || rd64(data_) != MAGIC ||
        rd64(data_ + 8) != VERSION)
        return false;
    nCheckpoints_ = rd64(data_ + 16);
    weightDen_ = rd64(data_ + 24);
    pagePoolOff_ = rd64(data_ + 32);
    nPoolPages_ = rd64(data_ + 40);
    // Counts come from the file: compare by division so a huge value
    // cannot wrap the product past the check.
    if (nCheckpoints_ > (len_ / 8 - HEADER_U64) / TABLE_U64)
        return false;
    if (pagePoolOff_ > len_ || nPoolPages_ > (len_ - pagePoolOff_) / PAGE)
        return false;
    return true;
}

const uint8_t *
PackReader::tableEntry(size_t i) const
{
    return data_ + (HEADER_U64 + TABLE_U64 * i) * 8;
}

uint64_t
PackReader::weightNum(size_t i) const
{
    return rd64(tableEntry(i) + 8);
}

uint64_t
PackReader::instCount(size_t i) const
{
    return rd64(tableEntry(i));
}

double
PackReader::weight(size_t i) const
{
    return weightDen_ ? static_cast<double>(weightNum(i)) /
                            static_cast<double>(weightDen_)
                      : 0.0;
}

bool
PackReader::restoreInto(size_t i, iss::ArchState &state,
                        mem::PhysMem &mem) const
{
    if (i >= nCheckpoints_)
        return false;
    const uint8_t *te = tableEntry(i);
    uint64_t archOff = rd64(te + 16);
    uint64_t entryOff = rd64(te + 24);
    uint64_t nEntries = rd64(te + 32);
    size_t archLen = checkpoint::archHeaderBytes();
    if (archOff > len_ || archLen > len_ - archOff || entryOff > len_ ||
        nEntries > (len_ - entryOff) / 16)
        return false;
    if (!checkpoint::restoreArch(data_ + archOff, archLen, state))
        return false;

    // Borrow the pool pages instead of copying them: a slice copies
    // in only the pages its window touches.
    std::vector<mem::PhysMem::BackingPage> pages;
    pages.reserve(nEntries);
    for (uint64_t e = 0; e < nEntries; ++e) {
        uint64_t base = rd64(data_ + entryOff + e * 16);
        uint64_t idx = rd64(data_ + entryOff + e * 16 + 8);
        if (idx >= nPoolPages_ || (base & (PAGE - 1)) != 0 ||
            !mem.contains(base, PAGE) ||
            (!pages.empty() && base <= pages.back().first))
            return false;
        pages.emplace_back(base, data_ + pagePoolOff_ + idx * PAGE);
    }
    mem.borrowPages(std::move(pages));
    return true;
}

std::vector<uint8_t>
packFromGen(const checkpoint::GenResult &gen)
{
    if (gen.checkpoints.empty())
        return {};
    // SimPoint weights are clusterSize / intervalCount; recover the
    // integer numerator so downstream reduction is exact. The
    // whole-run fallback (one checkpoint, weight 1.0) lands on 1/1.
    uint64_t den = gen.simpoints.assignment.size();
    if (den == 0)
        den = 1;
    std::vector<uint64_t> nums;
    for (const auto &e : gen.checkpoints) {
        if (e.arch.size() != checkpoint::archHeaderBytes())
            return {}; // a slot that was never captured
        nums.push_back(static_cast<uint64_t>(
            std::llround(e.weight * static_cast<double>(den))));
    }
    return layout(gen.checkpoints, nums, den);
}

} // namespace minjie::sample
