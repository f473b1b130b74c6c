// Canonical digest of a whole VerifyResult, shared by the tests that pin
// verdicts or compare two of them.

#pragma once

#include <bit>
#include <string>

#include "core/verifier.h"

namespace rpol::testing {

// SHA-256 over a canonical encoding of every VerifyResult field, so a
// pinned value catches any change to a verdict, its counters or its checks.
inline std::string verdict_digest(const core::VerifyResult& r) {
  Bytes b;
  b.push_back(r.accepted ? 1 : 0);
  append_i64(b, static_cast<std::int64_t>(r.failure));
  append_u64(b, r.proof_bytes);
  append_i64(b, r.reexecuted_steps);
  append_i64(b, r.lsh_mismatches);
  append_i64(b, r.double_checks);
  append_u64(b, r.checks.size());
  for (const core::TransitionCheck& c : r.checks) {
    append_i64(b, c.transition);
    b.push_back(c.hash_ok ? 1 : 0);
    b.push_back(c.lsh_matched ? 1 : 0);
    b.push_back(c.double_checked ? 1 : 0);
    append_u64(b, std::bit_cast<std::uint64_t>(c.distance));
    b.push_back(c.passed ? 1 : 0);
  }
  return digest_to_hex(sha256(b));
}

}  // namespace rpol::testing
