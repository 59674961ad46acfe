#include "checkpoint/checkpoint.h"

#include <cstring>
#include <span>

namespace minjie::checkpoint {

namespace {

constexpr uint64_t MAGIC = 0x4d4a434b50543031ULL; // "MJCKPT01"

/** u64 fields in the arch header: magic, pc, x[32], f[32], priv,
 *  resValid, resAddr, instret, csr count, 26 CSRs. */
constexpr size_t N_CSRS = 26;
constexpr size_t ARCH_FIELDS = 1 + 1 + 32 + 32 + 1 + 1 + 1 + 1 + 1 + N_CSRS;

void
put64(std::vector<uint8_t> &v, uint64_t x)
{
    size_t off = v.size();
    v.resize(off + 8);
    std::memcpy(v.data() + off, &x, 8);
}

uint64_t
get64(const uint8_t *data, size_t len, size_t &off)
{
    uint64_t x = 0;
    if (off + 8 <= len) {
        std::memcpy(&x, data + off, 8);
        off += 8;
    }
    return x;
}

uint64_t
get64(const std::vector<uint8_t> &v, size_t &off)
{
    return get64(v.data(), v.size(), off);
}

/** All-zero scan, 8 bytes at a time (pages are 8-aligned). */
bool
pageIsZero(const uint8_t *data)
{
    uint64_t acc = 0;
    for (unsigned i = 0; i < mem::PhysMem::PAGE_SIZE; i += 8) {
        uint64_t w;
        std::memcpy(&w, data + i, 8);
        acc |= w;
        if (acc)
            return false;
    }
    return true;
}

} // namespace

size_t
archHeaderBytes()
{
    return ARCH_FIELDS * 8;
}

void
serializeArch(std::vector<uint8_t> &v, const iss::ArchState &st)
{
    put64(v, MAGIC);
    put64(v, st.pc);
    for (auto r : st.x)
        put64(v, r);
    for (auto r : st.f)
        put64(v, r);
    put64(v, static_cast<uint64_t>(st.priv));
    put64(v, st.resValid ? 1 : 0);
    put64(v, st.resAddr);
    put64(v, st.instret);

    // CSR block (Figure 9: the restorable machine/supervisor subset).
    const auto &c = st.csr;
    const uint64_t csrs[] = {
        c.mstatus, c.misa, c.medeleg, c.mideleg, c.mie, c.mtvec,
        c.mcounteren, c.mscratch, c.mepc, c.mcause, c.mtval, c.mip,
        c.mcycle, c.minstret, c.mhartid, c.stvec, c.scounteren,
        c.sscratch, c.sepc, c.scause, c.stval, c.satp, c.pmpcfg0,
        c.pmpaddr0, static_cast<uint64_t>(c.fflags),
        static_cast<uint64_t>(c.frm),
    };
    static_assert(std::size(csrs) == N_CSRS);
    put64(v, std::size(csrs));
    for (auto x : csrs)
        put64(v, x);
}

bool
restoreArch(const uint8_t *data, size_t len, iss::ArchState &st)
{
    size_t off = 0;
    if (len < archHeaderBytes() || get64(data, len, off) != MAGIC)
        return false;

    st.pc = get64(data, len, off);
    for (auto &r : st.x)
        r = get64(data, len, off);
    for (auto &r : st.f)
        r = get64(data, len, off);
    st.priv = static_cast<isa::Priv>(get64(data, len, off));
    st.resValid = get64(data, len, off) != 0;
    st.resAddr = get64(data, len, off);
    st.instret = get64(data, len, off);

    if (get64(data, len, off) != N_CSRS)
        return false;
    auto &c = st.csr;
    uint64_t *dst[] = {
        &c.mstatus, &c.misa, &c.medeleg, &c.mideleg, &c.mie, &c.mtvec,
        &c.mcounteren, &c.mscratch, &c.mepc, &c.mcause, &c.mtval, &c.mip,
        &c.mcycle, &c.minstret, &c.mhartid, &c.stvec, &c.scounteren,
        &c.sscratch, &c.sepc, &c.scause, &c.stval, &c.satp, &c.pmpcfg0,
        &c.pmpaddr0,
    };
    for (auto *d : dst)
        *d = get64(data, len, off);
    c.fflags = static_cast<uint8_t>(get64(data, len, off));
    c.frm = static_cast<uint8_t>(get64(data, len, off));
    return true;
}

Checkpoint
serialize(const iss::ArchState &st, const mem::PhysMem &mem,
          uint64_t instCount)
{
    Checkpoint cp;
    cp.instCount = instCount;
    auto &v = cp.bytes;
    // Size the image once: growing it page by page reallocates (and
    // briefly doubles) a multi-megabyte buffer at every step.
    v.reserve(archHeaderBytes() + 8 +
              mem.allocatedPages() * (8 + mem::PhysMem::PAGE_SIZE));

    serializeArch(v, st);

    // Memory image: {count, {base, 4096 bytes}*}, zero pages elided —
    // restore() clears the target memory first, so an elided page
    // reads back as zeros without ever being materialized.
    size_t countOff = v.size();
    put64(v, 0);
    uint64_t pages = 0;
    mem.forEachPage([&](Addr base, const uint8_t *data) {
        if (pageIsZero(data))
            return;
        put64(v, base);
        v.insert(v.end(), data, data + mem::PhysMem::PAGE_SIZE);
        ++pages;
    });
    std::memcpy(v.data() + countOff, &pages, 8);
    return cp;
}

bool
restore(const Checkpoint &cp, iss::ArchState &st, mem::PhysMem &mem)
{
    const auto &v = cp.bytes;
    if (!restoreArch(v.data(), v.size(), st))
        return false;
    size_t off = archHeaderBytes();

    mem.clear();
    uint64_t pages = get64(v, off);
    for (uint64_t p = 0; p < pages; ++p) {
        Addr base = get64(v, off);
        if (off + mem::PhysMem::PAGE_SIZE > v.size())
            return false;
        mem.load(base, v.data() + off, mem::PhysMem::PAGE_SIZE);
        off += mem::PhysMem::PAGE_SIZE;
    }
    return true;
}

void
CheckpointSet::capture(size_t i, const iss::ArchState &st,
                       const mem::PhysMem &mem, uint64_t instCount)
{
    Entry e;
    e.instCount = instCount;
    e.weight = entries_[i].weight;
    serializeArch(e.arch, st);
    e.pages.reserve(mem.allocatedPages());
    // Hints: the previous capture's page at the same address. Both
    // lists ascend by base, so one cursor walks them in step.
    std::span<const PageRef> prev;
    if (last_ < entries_.size())
        prev = entries_[last_].pages;
    size_t p = 0;
    mem.forEachPage([&](Addr base, const uint8_t *data) {
        if (pageIsZero(data))
            return;
        while (p < prev.size() && prev[p].base < base)
            ++p;
        uint32_t hint = p < prev.size() && prev[p].base == base
                            ? prev[p].idx
                            : PagePool::NONE;
        e.pages.push_back({base, pool_.intern(data, hint)});
    });
    entries_[i] = std::move(e);
    last_ = i;
}

bool
CheckpointSet::add(const Checkpoint &cp)
{
    const auto &v = cp.bytes;
    size_t archLen = archHeaderBytes();
    if (v.size() < archLen + 8)
        return false;
    Entry e;
    e.instCount = cp.instCount;
    e.weight = cp.weight;
    e.arch.assign(v.begin(), v.begin() + static_cast<ptrdiff_t>(archLen));
    size_t off = archLen;
    uint64_t pages = get64(v, off);
    for (uint64_t p = 0; p < pages; ++p) {
        Addr base = get64(v, off);
        if (off + mem::PhysMem::PAGE_SIZE > v.size())
            return false;
        e.pages.push_back({base, pool_.intern(v.data() + off)});
        off += mem::PhysMem::PAGE_SIZE;
    }
    entries_.push_back(std::move(e));
    return true;
}

Checkpoint
CheckpointSet::image(size_t i) const
{
    const Entry &e = entries_[i];
    Checkpoint cp;
    cp.instCount = e.instCount;
    cp.weight = e.weight;
    auto &v = cp.bytes;
    v.reserve(e.arch.size() + 8 +
              e.pages.size() * (8 + mem::PhysMem::PAGE_SIZE));
    v.assign(e.arch.begin(), e.arch.end());
    put64(v, e.pages.size());
    for (const auto &[base, idx] : e.pages) {
        put64(v, base);
        const uint8_t *page = pool_.page(idx);
        v.insert(v.end(), page, page + mem::PhysMem::PAGE_SIZE);
    }
    return cp;
}

bool
restore(const CheckpointSet &set, size_t i, iss::ArchState &st,
        mem::PhysMem &mem)
{
    if (i >= set.size())
        return false;
    const auto &e = set[i];
    if (!restoreArch(e.arch.data(), e.arch.size(), st))
        return false;
    mem.clear();
    for (const auto &[base, idx] : e.pages)
        mem.load(base, set.pool().page(idx), mem::PhysMem::PAGE_SIZE);
    return true;
}

} // namespace minjie::checkpoint
