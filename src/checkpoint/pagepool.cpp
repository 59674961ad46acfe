#include "checkpoint/pagepool.h"

namespace minjie::checkpoint {

namespace {

/** FNV-1a over one page in four interleaved lanes (8 bytes per step),
 *  so the multiply chains overlap. */
uint64_t
hashPage(const uint8_t *page)
{
    constexpr uint64_t PRIME = 0x100000001b3ULL;
    uint64_t h[4] = {0xcbf29ce484222325ULL, 0x84222325cbf29ce4ULL,
                     0x9e3779b97f4a7c15ULL, 0xbf58476d1ce4e5b9ULL};
    for (size_t i = 0; i < PagePool::PAGE; i += 32) {
        for (size_t l = 0; l < 4; ++l) {
            uint64_t w;
            std::memcpy(&w, page + i + 8 * l, 8);
            h[l] = (h[l] ^ w) * PRIME;
        }
    }
    return ((h[0] ^ h[1]) * PRIME) ^ ((h[2] ^ h[3]) * PRIME);
}

} // namespace

uint32_t
PagePool::intern(const uint8_t *page)
{
    uint64_t h = hashPage(page);
    auto it = byHash_.try_emplace(h, NONE).first;
    for (uint32_t idx = it->second; idx != NONE; idx = sameHash_[idx]) {
        if (std::memcmp(this->page(idx), page, PAGE) == 0)
            return idx;
    }
    if (count_ % CHUNK == 0)
        chunks_.push_back(std::make_unique_for_overwrite<uint8_t[]>(
            size_t{CHUNK} * PAGE));
    uint32_t idx = count_++;
    std::memcpy(chunks_.back().get() + size_t{idx % CHUNK} * PAGE, page,
                PAGE);
    sameHash_.push_back(it->second);
    it->second = idx;
    return idx;
}

} // namespace minjie::checkpoint
