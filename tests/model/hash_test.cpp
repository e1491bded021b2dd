/**
 * @file
 * Value-pinning tests for the shared hashing helpers (util/hash.hpp).
 *
 * These hashes are observable behavior, not implementation detail:
 * ring placement decides which backend owns (and is warm for) a
 * shape. Every expectation below is a literal constant, so any
 * refactor that changes an output — a "fixed" basis, a reordered mix
 * — fails here instead of silently re-sharding the fleet.
 */

#include "ruby/util/hash.hpp"

#include <gtest/gtest.h>

#include <string>

#include "ruby/serve/router.hpp"

namespace ruby
{
namespace hashing
{
namespace
{

TEST(Hash, FnvConstantsAreCanonical)
{
    EXPECT_EQ(kFnvOffset, 0xcbf29ce484222325ull);
    EXPECT_EQ(kFnvPrime, 0x100000001b3ull);
}

TEST(Hash, RingOffsetIsTheFrozenHistoricalSeed)
{
    // Deliberately NOT the canonical FNV basis: the original router
    // dropped a digit spelling it in decimal, and the ring layout
    // built from that seed is frozen (see hash.hpp).
    EXPECT_EQ(kRingOffset, 1469598103934665603ull);
    EXPECT_NE(kRingOffset, kFnvOffset);
}

TEST(Hash, Fnv1aBytesPinnedValues)
{
    // Empty input returns the seed unchanged.
    EXPECT_EQ(fnv1aBytes(""), kFnvOffset);
    EXPECT_EQ(fnv1aBytes("", kRingOffset), kRingOffset);

    EXPECT_EQ(fnv1aBytes("ruby"), 0xbfc4de1f6f354d2dull);
    EXPECT_EQ(fnv1aBytes("eyeriss#0"), 0xd609cb6fc55d0c9aull);

    EXPECT_EQ(fnv1aBytes("ruby", kRingOffset),
              0xd46c2037c700683bull);
    EXPECT_EQ(fnv1aBytes("a#0", kRingOffset), 0xe09254510d03711dull);
}

TEST(Hash, Fnv1aBytesMatchesTheReferenceLoop)
{
    // Independent spelling of byte-wise FNV-1a with the historical
    // ring seed — exactly the loop the router inlined before the
    // helper existed.
    const auto reference = [](const std::string &key) {
        std::uint64_t hash = 1469598103934665603ull;
        for (const char c : key) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 1099511628211ull;
        }
        return hash;
    };
    for (const std::string key :
         {"", "a", "shape-0", "backend#63", "K16_C32_R3_S3"}) {
        EXPECT_EQ(fnv1aBytes(key, kRingOffset), reference(key))
            << key;
    }
}

TEST(Hash, RingHashKeyUsesTheFrozenSeed)
{
    for (const std::string key : {"a#0", "shape-17", "node#3"}) {
        EXPECT_EQ(serve::ConsistentRing::hashKey(key),
                  fnv1aBytes(key, kRingOffset))
            << key;
    }
}

TEST(Hash, CeilPow2)
{
    EXPECT_EQ(ceilPow2(1), 1u);
    EXPECT_EQ(ceilPow2(2), 2u);
    EXPECT_EQ(ceilPow2(3), 4u);
    EXPECT_EQ(ceilPow2(1000), 1024u);
    EXPECT_EQ(ceilPow2(1024), 1024u);
}

} // namespace
} // namespace hashing
} // namespace ruby
