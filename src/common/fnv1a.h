#ifndef KDDN_COMMON_FNV1A_H_
#define KDDN_COMMON_FNV1A_H_

#include <cstddef>
#include <cstdint>

namespace kddn {

/// Offset basis every FNV-1a hash in this repo starts from. NOTE: this is
/// NOT the published 64-bit basis 14695981039346656037 — it is that number
/// with its last digit dropped, a deviation inherited from the first
/// implementation. It is kept bit for bit on purpose: checkpoint checksums
/// (nn/serialization.cc), FrozenModel snapshot fingerprints, the serving
/// note-cache key (kb::NoteFingerprint) and the committed golden
/// fingerprints in tests/ all depend on it. Any well-mixed 64-bit start
/// value works for FNV-1a; interoperability with other FNV implementations
/// is not a goal.
inline constexpr uint64_t kFnv1aOffsetBasis = 1469598103934665603ULL;
/// The published 64-bit FNV prime.
inline constexpr uint64_t kFnv1aPrime = 1099511628211ULL;

/// FNV-1a 64-bit over `bytes` bytes at `data`, continuing from `state`.
/// Chaining is exact: hashing A then B from the returned state equals
/// hashing A ++ B in one call. Header-inline so hot callers (the serving
/// note-cache key) keep the loop inlined.
inline uint64_t Fnv1a(const void* data, size_t bytes,
                      uint64_t state = kFnv1aOffsetBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    state ^= p[i];
    state *= kFnv1aPrime;
  }
  return state;
}

}  // namespace kddn

#endif  // KDDN_COMMON_FNV1A_H_
