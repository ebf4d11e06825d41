#pragma once

/// Test-only helpers shared by the derived-graph suites
/// (tests/test_sweep_digest.cpp, tests/test_frontier_gate.cpp): an FNV-1a
/// digest and an A_matching decorator that hashes every derived graph the
/// boosting driver hands its oracle, and every answer. Changing either
/// changes the golden digests in tests/golden/sweep_digests.txt.

#include <cstdint>

#include "core/oracle.hpp"

namespace bmf {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

/// FNV-1a over 64-bit words, byte by byte.
struct Digest {
  std::uint64_t h = kFnvOffset;
  void mix(std::uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      h ^= (value >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void mix_signed(std::int64_t value) { mix(static_cast<std::uint64_t>(value)); }
};

/// Test-only A_matching decorator: forwards every call unchanged and hashes
/// the derived graph it receives and the answer it returns.
class RecordingOracle final : public MatchingOracle {
 public:
  explicit RecordingOracle(MatchingOracle& inner) : inner_(inner) {}
  [[nodiscard]] double approx_factor() const override {
    return inner_.approx_factor();
  }
  [[nodiscard]] std::uint64_t digest() const { return digest_.h; }

 protected:
  OracleMatching find_impl(const OracleGraph& h) override {
    digest_.mix_signed(h.n);
    digest_.mix(h.edges.size());
    for (const auto& [a, b] : h.edges) {
      digest_.mix_signed(a);
      digest_.mix_signed(b);
    }
    OracleMatching found = inner_.find_matching(h);
    digest_.mix(found.size());
    for (const auto& [a, b] : found) {
      digest_.mix_signed(a);
      digest_.mix_signed(b);
    }
    return found;
  }

 private:
  MatchingOracle& inner_;
  Digest digest_;
};

}  // namespace bmf
