#include "tolerance/crypto/hmac.hpp"

#include <algorithm>
#include <array>

namespace tolerance::crypto {

HmacKey::HmacKey(std::string_view key) {
  constexpr std::size_t kBlock = 64;
  std::array<std::uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    const Digest kd = Sha256::hash(key);
    std::copy(kd.begin(), kd.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  std::array<std::uint8_t, kBlock> ipad{}, opad{};
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  inner_.update(ipad.data(), ipad.size());
  outer_.update(opad.data(), opad.size());
}

Digest HmacKey::sign(std::string_view message) const {
  Sha256 inner = inner_;
  inner.update(message);
  const Digest inner_digest = inner.finalize();
  Sha256 outer = outer_;
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finalize();
}

Digest hmac_sha256(std::string_view key, std::string_view message) {
  return HmacKey(key).sign(message);
}

bool hmac_verify(std::string_view key, std::string_view message,
                 const Digest& tag) {
  return HmacKey(key).verify(message, tag);
}

}  // namespace tolerance::crypto
