// SHA-1 (FIPS 180-1), implemented from scratch.
//
// The paper's VPN uses SHA1 for traffic integrity ("Symmetric mechanisms
// (e.g. 3DES, SHA1)") and our IKE uses HMAC-SHA1 as the Phase-1/Phase-2 PRF
// into which QKD bits are mixed. SHA-1 is obsolete for new designs but is the
// algorithm the 2003 system ran, so we reproduce it.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "src/common/bytes.hpp"

namespace qkd::crypto {

class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha1();

  /// Streaming interface.
  void update(std::span<const std::uint8_t> data);
  Digest finish();

  /// One-shot convenience; inputs of up to 55 bytes take a single-block
  /// path with no buffering.
  static Digest hash(std::span<const std::uint8_t> data);

 private:
  void process_block(const std::uint8_t* block);
  Digest digest() const;  // the chaining state, big-endian

  std::array<std::uint32_t, 5> h_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace qkd::crypto
