// HMAC-SHA256 (RFC 2104).  Used for message authentication on network links
// and as the "signature" primitive: under the paper's threat model the
// attacker cannot forge signatures (Prop. 1(a)), which a keyed MAC with a
// registry of pre-shared keys models faithfully in a closed system.
//
// HmacKey holds a key's midstates: the SHA-256 states after the ipad and
// after the opad block, computed once when the key is built.  A MAC under
// it resumes from those two states, so a message shorter than 56 bytes
// costs two compressions instead of four.  Long-lived keys (Signer,
// KeyRegistry entries, Usig, the runtime's link keys) hold one;
// hmac_sha256() builds a throwaway key per call and yields the same tags.
#pragma once

#include <string>
#include <string_view>

#include "tolerance/crypto/sha256.hpp"

namespace tolerance::crypto {

class HmacKey {
 public:
  /// Keys longer than one 64-byte block are hashed first (RFC 2104).
  explicit HmacKey(std::string_view key);

  Digest sign(std::string_view message) const;

  /// Tag equality check (constant time).
  bool verify(std::string_view message, const Digest& tag) const {
    return digest_equal(sign(message), tag);
  }

 private:
  Sha256 inner_;  ///< after absorbing key ^ ipad
  Sha256 outer_;  ///< after absorbing key ^ opad
};

Digest hmac_sha256(std::string_view key, std::string_view message);

/// Convenience: tag equality check (constant time).
bool hmac_verify(std::string_view key, std::string_view message,
                 const Digest& tag);

}  // namespace tolerance::crypto
