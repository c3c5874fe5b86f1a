#include "tolerance/crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "tolerance/util/sharded_counter.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define TOLERANCE_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace tolerance::crypto {
namespace {

alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef TOLERANCE_SHA_NI

#define TOLERANCE_SHA_TARGET __attribute__((target("sha,sse4.1,ssse3")))

// Four rounds: W[t..t+3] + K[t..t+3] through two sha256rnds2 steps.  The
// state lives as ABEF/CDGH; each rnds2 consumes the low two words of `m`.
TOLERANCE_SHA_TARGET inline void rounds4(__m128i& abef, __m128i& cdgh,
                                         __m128i w, int t) {
  __m128i m = _mm_add_epi32(
      w, _mm_load_si128(reinterpret_cast<const __m128i*>(kK + t)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, m);
  m = _mm_shuffle_epi32(m, 0x0E);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, m);
}

// The message words at `data` as big-endian 32-bit lanes.
TOLERANCE_SHA_TARGET inline __m128i load_words(const std::uint8_t* data) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(data)), bswap);
}

// W[g] for g >= 4 from W[g-4] (already folded with W[g-3] by sha256msg1),
// W[g-2] and W[g-1]: adds the W[t-7] terms, then sha256msg2 the sigma1 terms.
TOLERANCE_SHA_TARGET inline __m128i schedule(__m128i w4, __m128i w2,
                                             __m128i w1) {
  return _mm_sha256msg2_epu32(_mm_add_epi32(w4, _mm_alignr_epi8(w1, w2, 4)),
                              w1);
}

TOLERANCE_SHA_TARGET void compress_sha_ni(std::uint32_t* state,
                                          const std::uint8_t* data,
                                          std::size_t blocks) {
  // {a,b,c,d},{e,f,g,h} -> ABEF / CDGH, the layout sha256rnds2 expects.
  __m128i tmp = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  __m128i cdgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // Message schedule in four registers W[g] (g = 0..15, four words
    // each).  Raw W[g-2] is still needed to build W[g], so it is folded
    // with sha256msg1 (for W[g+2]) only after W[g] exists.
    __m128i w0 = load_words(data + 0);
    rounds4(abef, cdgh, w0, 0);
    __m128i w1 = load_words(data + 16);
    rounds4(abef, cdgh, w1, 4);
    __m128i w2 = load_words(data + 32);
    rounds4(abef, cdgh, w2, 8);
    w0 = _mm_sha256msg1_epu32(w0, w1);
    __m128i w3 = load_words(data + 48);
    rounds4(abef, cdgh, w3, 12);
    w1 = _mm_sha256msg1_epu32(w1, w2);
    for (int t = 16; t < 64; t += 16) {
      w0 = schedule(w0, w2, w3);
      rounds4(abef, cdgh, w0, t);
      w2 = _mm_sha256msg1_epu32(w2, w3);
      w1 = schedule(w1, w3, w0);
      rounds4(abef, cdgh, w1, t + 4);
      w3 = _mm_sha256msg1_epu32(w3, w0);
      w2 = schedule(w2, w0, w1);
      rounds4(abef, cdgh, w2, t + 8);
      w0 = _mm_sha256msg1_epu32(w0, w1);
      w3 = schedule(w3, w1, w2);
      rounds4(abef, cdgh, w3, t + 12);
      w1 = _mm_sha256msg1_epu32(w1, w2);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // ABEF / CDGH -> {a,b,c,d},{e,f,g,h}.
  tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));
}

bool cpu_has_sha_ni() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  const bool ssse3 = (c & (1u << 9)) != 0;   // leaf 1 ECX
  const bool sse41 = (c & (1u << 19)) != 0;  // leaf 1 ECX
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  const bool sha = (b & (1u << 29)) != 0;  // leaf 7 sub-leaf 0 EBX
  return ssse3 && sse41 && sha;
}

#endif  // TOLERANCE_SHA_NI

detail::CompressFn dispatched_compress() {
  const detail::CompressFn fast = detail::accelerated_compress();
  return fast != nullptr ? fast : compress_portable;
}

}  // namespace

namespace detail {

CompressFn portable_compress() { return compress_portable; }

CompressFn accelerated_compress() {
#ifdef TOLERANCE_SHA_NI
  static const bool available = cpu_has_sha_ni();  // CPUID once per process
  return available ? compress_sha_ni : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace detail

Sha256::Sha256() : Sha256(dispatched_compress()) {}

Sha256::Sha256(detail::CompressFn compress)
    : compress_(compress),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  if (len == 0) return;
  total_len_ += len;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < buffer_.size()) return;
    compress_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const std::size_t blocks = len / 64;
  if (blocks > 0) {
    compress_(state_.data(), data, blocks);
    data += 64 * blocks;
    len -= 64 * blocks;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffer_len_ = len;
  }
}

void Sha256::update(std::string_view s) {
  update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

namespace {
util::ShardedCounter g_invocations;
}  // namespace

std::uint64_t Sha256::invocations() { return g_invocations.value(); }

void Sha256::reset_invocations() { g_invocations.reset(); }

Digest Sha256::finalize() {
  g_invocations.add();
  // Padding in one go: the buffered bytes, 0x80, zeros, and the 64-bit
  // big-endian bit length fill one block, or two when fewer than 9 bytes
  // of the first are free.
  std::uint8_t tail[128] = {};
  std::memcpy(tail, buffer_.data(), buffer_len_);
  tail[buffer_len_] = 0x80;
  const std::size_t tail_len = buffer_len_ < 56 ? 64 : 128;
  const std::uint64_t bit_len = total_len_ * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[tail_len - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress_(state_.data(), tail, tail_len / 64);
  Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::hash(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.finalize();
}

Digest Sha256::hash(const std::vector<std::uint8_t>& bytes) {
  Sha256 h;
  h.update(bytes.data(), bytes.size());
  return h.finalize();
}

void append_hex(std::string& out, const Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (std::uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
}

std::string to_hex(const Digest& d) {
  std::string out;
  out.reserve(2 * d.size());
  append_hex(out, d);
  return out;
}

bool digest_equal(const Digest& a, const Digest& b) {
  unsigned diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace tolerance::crypto
