#include "rng.hh"

namespace wlcrc
{

namespace
{

/** SplitMix64 step, used only for seeding. */
uint64_t
splitMix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    for (auto &s : s_)
        s = splitMix64(seed);
    // Avoid the (astronomically unlikely) all-zero state.
    if (!(s_[0] | s_[1] | s_[2] | s_[3]))
        s_[0] = 1;
}

uint64_t
Rng::nextBelowRejecting(uint64_t bound)
{
    // Rejection sampling to remove modulo bias.
    const uint64_t threshold = -bound % bound;
    for (;;) {
        const uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

uint64_t
childSeed(uint64_t parent, uint64_t shard)
{
    // Offset the parent along the SplitMix64 Weyl sequence by the
    // shard index, then scramble. Distinct shards of one parent and
    // equal shards of distinct parents both land far apart, and
    // childSeed(p, s) never equals p itself.
    uint64_t x = parent + shard * 0xbf58476d1ce4e5b9ull;
    return splitMix64(x);
}

} // namespace wlcrc
