// SHA-256 (FIPS 180-4), implemented from scratch.  Message digests underpin
// the authenticated channels, "digital signatures" (HMAC-based, valid under
// the paper's no-forgery assumption (a) of Prop. 1) and the USIG certificates
// of MinBFT.
//
// Two compression functions produce the same bits: a portable one, and an
// x86 SHA-NI one (SHA extensions + SSSE3 + SSE4.1 intrinsics).  The kernel is
// picked once per process by CPUID (leaf 7 EBX bit 29, leaf 1 SSSE3/SSE4.1);
// every other CPU, and every non-x86 build, uses the portable function.
// There is no knob to force either one: tests compare them through
// detail::portable_compress / detail::accelerated_compress.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tolerance::crypto {

using Digest = std::array<std::uint8_t, 32>;

namespace detail {

/// Folds `blocks` consecutive 64-byte blocks at `data` into `state`.
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks);

CompressFn portable_compress();
/// The SHA-NI kernel, or nullptr when this CPU or build lacks it.
CompressFn accelerated_compress();

}  // namespace detail

class Sha256 {
 public:
  /// Hashes with the kernel CPUID selected for this process.
  Sha256();
  /// Hashes with a specific compression function (differential tests).
  explicit Sha256(detail::CompressFn compress);

  /// Incremental interface.  Whole blocks are compressed straight from the
  /// input; only a partial block is buffered.
  void update(const std::uint8_t* data, std::size_t len);
  void update(std::string_view s);
  Digest finalize();

  /// One-shot helpers.
  static Digest hash(std::string_view s);
  static Digest hash(const std::vector<std::uint8_t>& bytes);

  /// Process-wide count of digests computed (finalize() calls), summed
  /// over every thread (util::ShardedCounter).  Lets the micro bench and
  /// perfbench put a number on digest work per request.
  static std::uint64_t invocations();
  static void reset_invocations();

 private:
  detail::CompressFn compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Lowercase hex encoding of a digest.
std::string to_hex(const Digest& d);
/// Appends the lowercase hex encoding of `d` to `out`.
void append_hex(std::string& out, const Digest& d);

/// Constant-time digest comparison.
bool digest_equal(const Digest& a, const Digest& b);

}  // namespace tolerance::crypto
