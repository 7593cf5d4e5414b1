#pragma once
// Byte-level encoders every layer shares: the JSON string escape, the
// fixed %.12e JSON double, and FNV-1a hashing.  They live here, in the
// lowest library every caller links, so each exists exactly once —
// scripts/check.sh fails the build on a second definition of the escaper
// or a second copy of the FNV offset basis.
//
// The output of each is pinned by tests: server wire bytes, `rct batch
// --json` stdout, design handles, NetKey hashes and DiskStore entry paths
// are all derived from them.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace rct::obs {

/// Appends `s` as a quoted JSON string literal.  `"`, `\`, `\n`, `\r` and
/// `\t` get their short escapes; every other byte below 0x20 becomes
/// `\u00XX`; all other bytes (UTF-8 included) pass through unchanged.
void append_json_string(std::string& out, std::string_view s);

/// Appends `v` in the deterministic `%.12e` form the batch JSON and the
/// server wire use (no special case for non-finite values).
void append_json_double(std::string& out, double v);

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// 64-bit FNV-1a of `bytes`, continuing from `hash` (the offset basis
/// starts a fresh hash).
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash = kFnvOffsetBasis);

/// 64-bit FNV-1a over the 8 bytes of each word, least significant byte
/// first — the same value as fnv1a() over the words' little-endian bytes,
/// on any host.
[[nodiscard]] std::uint64_t fnv1a_words(std::span<const std::uint64_t> words,
                                        std::uint64_t hash = kFnvOffsetBasis);

}  // namespace rct::obs
