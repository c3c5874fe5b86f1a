// tolbench: one workload run of the repository benchmark.
//
//   tolbench --workload <lan3-sat|wan7-fast> --seed <n> --seconds <s>
//            --trace <0|1>
//
// Prints a regime record ("regime: {...}"), one line per failed check
// ("check failed: ..."), and as its last line the result object
// {"correct", "attempted", "failed", "metrics"}.  Exits 1 if any check
// failed, 2 on bad arguments.
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>

#include "harness.hpp"
#include "tolerance/crypto/hmac.hpp"
#include "tolerance/crypto/keys.hpp"
#include "tolerance/crypto/sha256.hpp"
#include "tolerance/crypto/usig.hpp"

namespace perfbench {

CryptoCosts time_crypto(std::size_t mac_bytes, Result& out) {
  namespace crypto = tolerance::crypto;
  constexpr int kReps = 20000;
  CryptoCosts c;
  const std::string key(32, 'k');
  const std::string body(mac_bytes, 'x');
  auto t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) {
    g_sink = g_sink + crypto::hmac_sha256(key, body)[0];
  }
  c.hmac_us = 1e6 * seconds_since(t0) / kReps;
  crypto::KeyRegistry registry;
  crypto::Usig usig(0, registry.register_principal(
                           crypto::kUsigPrincipalOffset, 7));
  const crypto::Digest digest = crypto::Sha256::hash(body);
  bool ok = true;
  t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) {
    ok = ok && crypto::Usig::verify(registry, digest, usig.create(digest));
  }
  c.usig_us = 1e6 * seconds_since(t0) / kReps;
  if (!ok) out.fail("crypto: USIG certificate failed to verify");
  const std::string block(32, 'd');
  t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) {
    g_sink = g_sink + crypto::Sha256::hash(block)[0];
  }
  c.sha256_us = 1e6 * seconds_since(t0) / kReps;
  return c;
}

}  // namespace perfbench

namespace {

/// Speed of a fixed integer loop that belongs to the benchmark, in millions
/// of iterations per second.  Recorded before and after the workload so a
/// run slowed by a neighbour on the host shows in its regime record; no
/// change to the library can move it.
double host_speed() {
  constexpr std::uint64_t kIters = 20'000'000;
  volatile std::uint64_t seed = 1469598103934665603ULL;
  std::uint64_t h = seed;
  const auto t0 = perfbench::Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) h = (h ^ i) * 1099511628211ULL;
  const double s = perfbench::seconds_since(t0);
  seed = h;
  return 1e-6 * static_cast<double>(kIters) / s;
}

int usage() {
  std::cerr << "usage: tolbench --workload <lan3-sat|wan7-fast> "
               "--seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (argc % 2 != 1 || args.workload.empty() || args.seconds <= 0.0) {
    return usage();
  }

  const std::string load_before = perfbench::loadavg();
  const double speed_before = host_speed();
  const auto jiffies_before = perfbench::cpu_jiffies();
  perfbench::Result r;
  if (args.workload == "lan3-sat" || args.workload == "wan7-fast") {
    r = perfbench::run_request_path(args);
  } else {
    return usage();
  }

  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10);
  std::cout << "regime: {\"workload\": \"" << args.workload
            << "\", \"seed\": " << args.seed
            << ", \"seconds\": " << args.seconds
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"loadavg_before\": " << load_before
            << ", \"loadavg_after\": " << perfbench::loadavg()
            << ", \"host_speed_before\": " << speed_before
            << ", \"host_speed_after\": " << host_speed();
  const auto jiffies_after = perfbench::cpu_jiffies();
  const double total = jiffies_after.second - jiffies_before.second;
  std::cout << ", \"cpu_steal_share\": "
            << (total > 0 ? (jiffies_after.first - jiffies_before.first) / total
                          : 0.0);
  for (const auto& [key, value] : r.regime) {
    std::cout << ", \"" << key << "\": " << value;
  }
  std::cout << "}\n";
  for (const std::string& e : r.errors) {
    std::cout << "check failed: " << e << "\n";
  }
  const bool correct = r.errors.empty() && r.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& m : r.metrics) {
    std::cout << sep << "\"" << m.name << "\": {\"value\": " << m.value
              << ", \"unit\": \"" << m.unit << "\"}";
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
