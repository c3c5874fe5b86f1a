#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "tolerance/crypto/hmac.hpp"
#include "tolerance/crypto/keys.hpp"
#include "tolerance/crypto/sha256.hpp"
#include "tolerance/crypto/usig.hpp"

namespace tolerance::crypto {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, KnownVectors) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      to_hex(Sha256::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, LongInputCrossesBlockBoundaries) {
  // One million 'a' characters (standard vector).
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 h;
  h.update("hello ");
  h.update("world");
  EXPECT_EQ(to_hex(h.finalize()), to_hex(Sha256::hash("hello world")));
}

TEST(Sha256, DigestEqualConstantTimeSemantics) {
  const Digest a = Sha256::hash("x");
  const Digest b = Sha256::hash("x");
  const Digest c = Sha256::hash("y");
  EXPECT_TRUE(digest_equal(a, b));
  EXPECT_FALSE(digest_equal(a, c));
}

// RFC 4231 test vectors.
TEST(Hmac, Rfc4231Vectors) {
  const std::string key1(20, '\x0b');
  EXPECT_EQ(to_hex(hmac_sha256(key1, "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(to_hex(hmac_sha256("Jefe", "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  const std::string key(131, '\xaa');
  EXPECT_EQ(to_hex(hmac_sha256(key,
                               "Test Using Larger Than Block-Size Key - Hash "
                               "Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, VerifyAcceptsAndRejects) {
  const Digest tag = hmac_sha256("key", "msg");
  EXPECT_TRUE(hmac_verify("key", "msg", tag));
  EXPECT_FALSE(hmac_verify("key", "other", tag));
  EXPECT_FALSE(hmac_verify("wrong", "msg", tag));
}

TEST(KeyRegistry, SignatureRoundTrip) {
  KeyRegistry registry;
  const std::string secret = registry.register_principal(7, 42);
  const Signer signer(7, secret);
  const Signature sig = signer.sign("service request");
  EXPECT_TRUE(registry.verify("service request", sig));
  EXPECT_FALSE(registry.verify("tampered request", sig));
}

TEST(KeyRegistry, UnknownSignerRejected) {
  KeyRegistry registry;
  registry.register_principal(1, 42);
  const Signer impostor(2, "made-up-secret");
  const Signature sig = impostor.sign("msg");
  EXPECT_FALSE(registry.verify("msg", sig));
}

TEST(KeyRegistry, ForgeryWithoutKeyFails) {
  // Prop. 1(a): the attacker cannot forge signatures.  A signature produced
  // under a different key must not verify for the claimed principal.
  KeyRegistry registry;
  registry.register_principal(1, 42);
  Signature forged;
  forged.signer = 1;
  forged.tag = hmac_sha256("attacker-guess", "msg");
  EXPECT_FALSE(registry.verify("msg", forged));
}

TEST(KeyRegistry, KeyRotation) {
  KeyRegistry registry;
  const std::string old_secret = registry.register_principal(3, 1);
  const Signer old_signer(3, old_secret);
  const Signature old_sig = old_signer.sign("m");
  registry.register_principal(3, 2);  // rotate
  EXPECT_FALSE(registry.verify("m", old_sig));
}

TEST(Sha256, EmptyMessageKnownVector) {
  // The one-shot empty digest is covered by KnownVectors; the incremental
  // interface with zero update() calls and with an explicit zero-length
  // update must both produce the same empty-message digest.
  Sha256 h1;
  EXPECT_EQ(to_hex(h1.finalize()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  Sha256 h2;
  h2.update("");
  EXPECT_EQ(to_hex(h2.finalize()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Hmac, EmptyKeyAndMessageKnownVectors) {
  // HMAC-SHA256("", "") — standard cross-implementation vector.
  EXPECT_EQ(
      to_hex(hmac_sha256("", "")),
      "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
  // Empty message under a non-empty key.
  EXPECT_EQ(
      to_hex(hmac_sha256("key", "")),
      "5d5d139563c95b5967b9bd9a8c9b233a9dedb45072794cd232dc1b74832607d0");
  EXPECT_TRUE(hmac_verify("", "", hmac_sha256("", "")));
  EXPECT_FALSE(hmac_verify("key", "", hmac_sha256("", "")));
}

TEST(Usig, CountersAreStrictlyMonotonic) {
  auto registry = std::make_shared<KeyRegistry>();
  const std::string secret =
      registry->register_principal(5 + kUsigPrincipalOffset, 9);
  Usig usig(5, secret);
  const Digest d = Sha256::hash("op");
  const UniqueIdentifier u1 = usig.create(d);
  const UniqueIdentifier u2 = usig.create(d);
  EXPECT_EQ(u1.counter + 1, u2.counter);
  EXPECT_EQ(usig.last_counter(), u2.counter);
}

TEST(Usig, VerifyBindsCounterAndMessage) {
  auto registry = std::make_shared<KeyRegistry>();
  const std::string secret =
      registry->register_principal(5 + kUsigPrincipalOffset, 9);
  Usig usig(5, secret);
  const Digest d = Sha256::hash("op");
  UniqueIdentifier ui = usig.create(d);
  EXPECT_TRUE(Usig::verify(*registry, d, ui));
  // Different message with the same UI must fail (no equivocation).
  EXPECT_FALSE(Usig::verify(*registry, Sha256::hash("other-op"), ui));
  // Tampering with the counter must fail.
  UniqueIdentifier tampered = ui;
  tampered.counter += 1;
  EXPECT_FALSE(Usig::verify(*registry, d, tampered));
}

TEST(Usig, CannotAssignSameCounterToTwoMessages) {
  // The equivocation-prevention property: after certifying message A at
  // counter k, there is no API to certify message B at counter k; the next
  // certificate necessarily uses counter k+1.
  auto registry = std::make_shared<KeyRegistry>();
  const std::string secret =
      registry->register_principal(5 + kUsigPrincipalOffset, 9);
  Usig usig(5, secret);
  const UniqueIdentifier ua = usig.create(Sha256::hash("A"));
  const UniqueIdentifier ub = usig.create(Sha256::hash("B"));
  EXPECT_NE(ua.counter, ub.counter);
  // And a hand-crafted certificate for B at A's counter fails verification.
  UniqueIdentifier forged = ua;
  EXPECT_FALSE(Usig::verify(*registry, Sha256::hash("B"), forged));
}

TEST(UsigVerifyCache, CachesVerdictsAndCountsHits) {
  auto registry = std::make_shared<KeyRegistry>();
  const std::string secret =
      registry->register_principal(5 + kUsigPrincipalOffset, 9);
  Usig usig(5, secret);
  const Digest d = Sha256::hash("op");
  const UniqueIdentifier ui = usig.create(d);

  UsigVerifyCache cache;
  EXPECT_FALSE(cache.lookup(ui, d).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert(ui, d, Usig::verify(*registry, d, ui));
  const auto hit = cache.lookup(ui, d);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(UsigVerifyCache, DifferentContentOrCertificateNeverHits) {
  auto registry = std::make_shared<KeyRegistry>();
  const std::string secret =
      registry->register_principal(5 + kUsigPrincipalOffset, 9);
  Usig usig(5, secret);
  const Digest d = Sha256::hash("op");
  const UniqueIdentifier ui = usig.create(d);
  UsigVerifyCache cache;
  cache.insert(ui, d, true);
  // Same counter, different message digest: a replay with new content must
  // go through full verification (and fail there), never ride the cache.
  EXPECT_FALSE(cache.lookup(ui, Sha256::hash("other")).has_value());
  // Same counter and digest but a doctored certificate: also a miss.
  UniqueIdentifier forged = ui;
  forged.certificate[0] ^= 0xff;
  EXPECT_FALSE(cache.lookup(forged, d).has_value());
}

TEST(UsigVerifyCache, LaterVerificationReplacesStaleEntry) {
  // If a forged (digest, certificate) pairing for a counter is verified (and
  // cached as a failure) before the legitimate message arrives, the later
  // successful verification must replace the stale entry — otherwise every
  // retransmit of the real message re-pays the full HMAC check.
  auto registry = std::make_shared<KeyRegistry>();
  const std::string secret =
      registry->register_principal(5 + kUsigPrincipalOffset, 9);
  Usig usig(5, secret);
  const Digest d = Sha256::hash("op");
  const UniqueIdentifier ui = usig.create(d);
  UniqueIdentifier forged = ui;
  forged.certificate[0] ^= 0xff;

  UsigVerifyCache cache;
  cache.insert(forged, d, Usig::verify(*registry, d, forged));  // false
  cache.insert(ui, d, Usig::verify(*registry, d, ui));          // true
  const auto hit = cache.lookup(ui, d);
  ASSERT_TRUE(hit.has_value()) << "legitimate verdict was never cached";
  EXPECT_TRUE(*hit);
  // The forged pairing no longer matches the stored entry: a replay of it
  // misses and goes back through full (failing) verification.
  EXPECT_FALSE(cache.lookup(forged, d).has_value());
  // ...but that failing re-verification must not evict the canonical true
  // verdict either (else alternating forged replays would defeat the cache
  // in the other direction: last-writer-wins instead of first-writer-wins).
  cache.insert(forged, d, false);
  const auto still = cache.lookup(ui, d);
  ASSERT_TRUE(still.has_value()) << "forged replay evicted the true verdict";
  EXPECT_TRUE(*still);
}

TEST(UsigVerifyCache, EvictsOldestBeyondCapacity) {
  auto registry = std::make_shared<KeyRegistry>();
  const std::string secret =
      registry->register_principal(5 + kUsigPrincipalOffset, 9);
  Usig usig(5, secret);
  const Digest d = Sha256::hash("op");
  UsigVerifyCache cache(4);
  std::vector<UniqueIdentifier> uis;
  for (int i = 0; i < 6; ++i) {
    uis.push_back(usig.create(d));
    cache.insert(uis.back(), d, true);
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_FALSE(cache.lookup(uis[0], d).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(uis[5], d).has_value());   // retained
}

TEST(Sha256, InvocationCounterTracksDigestComputations) {
  const std::uint64_t before = Sha256::invocations();
  (void)Sha256::hash("abc");
  (void)Sha256::hash("def");
  EXPECT_EQ(Sha256::invocations(), before + 2);
}

TEST(Sha256Invocations, CountsEveryThreadExactly) {
  // The counter is sharded per thread; joined threads' counts must all
  // arrive, exactly, in the process-wide total that perfbench reads.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kHashes = 5000;
  const std::uint64_t before = Sha256::invocations();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (std::uint64_t i = 0; i < kHashes; ++i) {
        (void)Sha256::hash(std::to_string(t * kHashes + i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(Sha256::invocations() - before, kThreads * kHashes);
  Sha256::reset_invocations();
  EXPECT_EQ(Sha256::invocations(), 0u);
  (void)Sha256::hash("after reset");
  EXPECT_EQ(Sha256::invocations(), 1u);
}

TEST(Usig, CounterMonotoneUnderRepeatedSigning) {
  // Even on a compromised replica the USIG keeps assigning strictly
  // contiguous counters; sign many messages and check every certificate.
  auto registry = std::make_shared<KeyRegistry>();
  const std::string secret =
      registry->register_principal(7 + kUsigPrincipalOffset, 123);
  Usig usig(7, secret);
  std::uint64_t prev = usig.last_counter();
  for (int i = 0; i < 1000; ++i) {
    const Digest d = Sha256::hash("op-" + std::to_string(i % 17));
    const UniqueIdentifier ui = usig.create(d);
    EXPECT_EQ(ui.counter, prev + 1) << "counter skipped or repeated at " << i;
    EXPECT_EQ(ui.replica, 7u);
    EXPECT_TRUE(Usig::verify(*registry, d, ui)) << "certificate " << i;
    prev = ui.counter;
  }
  EXPECT_EQ(usig.last_counter(), prev);
}


// ---------------------------------------------------------------------------
// Kernel dispatch: the SHA-NI and portable compression functions must give
// the same bits for every input, through every buffering path of Sha256.
// ---------------------------------------------------------------------------

std::string random_bytes(std::mt19937_64& rng, std::size_t len) {
  std::string s(len, '\0');
  for (char& c : s) c = static_cast<char>(rng());
  return s;
}

/// Digest of `msg` through `compress`, fed to update() in random pieces.
Digest hash_in_pieces(detail::CompressFn compress, std::string_view msg,
                      std::mt19937_64& rng) {
  Sha256 h(compress);
  std::size_t pos = 0;
  while (pos < msg.size()) {
    const std::size_t piece =
        std::uniform_int_distribution<std::size_t>(0, msg.size() - pos)(rng);
    h.update(msg.substr(pos, piece));
    pos += piece;
  }
  return h.finalize();
}

Digest portable_hash(std::string_view msg) {
  Sha256 h(detail::portable_compress());
  h.update(msg);
  return h.finalize();
}

/// Random lengths 0-600 plus the padding edges: 55 bytes is the longest
/// one-block tail, 56 and 63 spill into a second block, 64/119/120 repeat
/// the pattern one block further.
std::vector<std::size_t> differential_lengths(std::mt19937_64& rng) {
  std::vector<std::size_t> lengths = {0, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128};
  for (int i = 0; i < 400; ++i) {
    lengths.push_back(std::uniform_int_distribution<std::size_t>(0, 600)(rng));
  }
  return lengths;
}

TEST(Sha256Dispatch, AcceleratedMatchesPortableOnRandomInputsAndSplits) {
  const detail::CompressFn fast = detail::accelerated_compress();
  if (fast == nullptr) GTEST_SKIP() << "this CPU has no SHA extensions";
  std::mt19937_64 rng(20240623);
  for (const std::size_t len : differential_lengths(rng)) {
    const std::string msg = random_bytes(rng, len);
    EXPECT_EQ(to_hex(hash_in_pieces(fast, msg, rng)),
              to_hex(portable_hash(msg)))
        << "length " << len;
  }
}

TEST(Sha256Dispatch, AcceleratedMultiBlockCallMatchesPortable) {
  // update() hands whole runs of blocks to one compression call; the state
  // after n blocks must not depend on the kernel.
  const detail::CompressFn fast = detail::accelerated_compress();
  if (fast == nullptr) GTEST_SKIP() << "this CPU has no SHA extensions";
  std::mt19937_64 rng(7);
  for (std::size_t blocks = 1; blocks <= 9; ++blocks) {
    const std::string data = random_bytes(rng, 64 * blocks);
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(data.data());
    std::uint32_t a[8], b[8];
    for (std::size_t i = 0; i < 8; ++i) {
      a[i] = b[i] = static_cast<std::uint32_t>(rng());
    }
    detail::portable_compress()(a, bytes, blocks);
    fast(b, bytes, blocks);
    EXPECT_TRUE(std::equal(a, a + 8, b)) << blocks << " blocks";
  }
}

TEST(Sha256Dispatch, DefaultKernelMatchesPortableAcrossSplitPoints) {
  // The CPUID-selected kernel, whichever it is, through random update()
  // splits: exercises the partial-block buffer and the one-shot padding.
  std::mt19937_64 rng(99);
  for (const std::size_t len : differential_lengths(rng)) {
    const std::string msg = random_bytes(rng, len);
    Sha256 h;
    std::size_t pos = 0;
    while (pos < msg.size()) {
      const std::size_t piece =
          std::uniform_int_distribution<std::size_t>(1, 70)(rng);
      h.update(std::string_view(msg).substr(pos, piece));
      pos += piece;
    }
    EXPECT_EQ(to_hex(h.finalize()), to_hex(portable_hash(msg)))
        << "length " << len;
  }
}

TEST(Sha256Dispatch, PortableKernelKeepsTheFipsVectors) {
  EXPECT_EQ(to_hex(portable_hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // 56 bytes: the padding needs a second block.
  EXPECT_EQ(
      to_hex(portable_hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

// ---------------------------------------------------------------------------
// HmacKey: cached ipad/opad midstates, same tags as the one-shot HMAC.
// ---------------------------------------------------------------------------

TEST(HmacKey, Rfc4231Vectors) {
  std::string key4;
  for (int i = 1; i <= 25; ++i) key4.push_back(static_cast<char>(i));
  const struct {
    std::string key;
    std::string message;
    const char* tag;
  } cases[] = {
      {std::string(20, '\x0b'), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {"Jefe", "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {std::string(20, '\xaa'), std::string(50, '\xdd'),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key4, std::string(50, '\xcd'),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {std::string(131, '\xaa'),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {std::string(131, '\xaa'),
       "This is a test using a larger than block-size key and a larger than "
       "block-size data. The key needs to be hashed before being used by the "
       "HMAC algorithm.",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const auto& c : cases) {
    const HmacKey key(c.key);
    EXPECT_EQ(to_hex(key.sign(c.message)), c.tag);
    EXPECT_TRUE(key.verify(c.message, key.sign(c.message)));
  }
}

/// RFC 2104 spelled out on the portable kernel, no midstates:
/// H((K ^ opad) || H((K ^ ipad) || m)).
Digest textbook_hmac(std::string key, std::string_view message) {
  if (key.size() > 64) {
    const Digest kd = portable_hash(key);
    key.assign(kd.begin(), kd.end());
  }
  key.resize(64, '\0');
  std::string inner(key), outer(key);
  for (char& c : inner) c = static_cast<char>(c ^ 0x36);
  for (char& c : outer) c = static_cast<char>(c ^ 0x5c);
  const Digest inner_digest = portable_hash(inner.append(message));
  return portable_hash(outer.append(inner_digest.begin(), inner_digest.end()));
}

TEST(HmacKey, ReusedKeyMatchesOneShotOverManyMessages) {
  // One key object signs many messages: the midstates must never be
  // mutated by a sign() call.  Key sizes straddle the 64-byte block.
  std::mt19937_64 rng(4231);
  for (const std::size_t key_len : {0, 1, 32, 63, 64, 65, 131}) {
    const std::string secret = random_bytes(rng, key_len);
    const HmacKey key(secret);
    for (int i = 0; i < 200; ++i) {
      const std::string msg = random_bytes(
          rng, std::uniform_int_distribution<std::size_t>(0, 300)(rng));
      const Digest tag = key.sign(msg);
      ASSERT_EQ(to_hex(tag), to_hex(textbook_hmac(secret, msg)))
          << "key " << key_len << " bytes, message " << i;
      EXPECT_EQ(to_hex(tag), to_hex(hmac_sha256(secret, msg)));
      EXPECT_TRUE(key.verify(msg, tag));
      EXPECT_TRUE(hmac_verify(secret, msg, tag));
    }
  }
}

TEST(HmacKey, VerifyRejectsTamperedTagMessageOrKey) {
  const HmacKey key("link:1:0>1");
  const Digest tag = key.sign("bundle");
  Digest flipped = tag;
  flipped[31] ^= 0x01;
  EXPECT_FALSE(key.verify("bundle", flipped));
  EXPECT_FALSE(key.verify("bundlf", tag));
  EXPECT_FALSE(HmacKey("link:1:1>0").verify("bundle", tag));
}

TEST(Usig, CertificatePayloadAndCertificateArePinned) {
  // The payload bytes (and so every certificate) are wire-visible: pinned
  // to the values the stream-formatted builder produced.
  KeyRegistry registry;
  const std::string secret =
      registry.register_principal(5 + kUsigPrincipalOffset, 9);
  Usig usig(5, secret, 3);
  const Digest d = Sha256::hash("op");
  UniqueIdentifier ui;
  for (int i = 0; i < 17; ++i) ui = usig.create(d);
  EXPECT_EQ(Usig::certificate_payload(5, 3, 17, d),
            "usig|5|3|17|"
            "037aeaeaf4bbf26ddabe7256a8294dc52da48d575a1247b5c2598c47de7aebab");
  EXPECT_EQ(ui.counter, 17u);
  EXPECT_EQ(to_hex(ui.certificate),
            "26c083f4dd636eb14c95d5c46a642d79fb7f4fda0c528e460ae799aadfbb0915");
  EXPECT_TRUE(Usig::verify(registry, d, ui));
  // Widest fields: every decimal digit survives.
  const std::string widest = Usig::certificate_payload(
      4294967295u, 18446744073709551615ull, 0, d);
  EXPECT_EQ(widest,
            "usig|4294967295|18446744073709551615|0|"
            "037aeaeaf4bbf26ddabe7256a8294dc52da48d575a1247b5c2598c47de7aebab");
  EXPECT_EQ(to_hex(hmac_sha256(secret, widest)),
            "1684bd8e41955f1b01cc9979708eb0bcb002419099bdaf52451907474cc00370");
}

}  // namespace
}  // namespace tolerance::crypto
