// Shared plumbing for the benchmark workloads: the result record each
// workload fills, order statistics, and the process probes (CPU time, peak
// RSS, load average) read from outside the library.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one workload run reports.  `metrics` holds (name, value, unit) in
/// print order; `regime` holds (key, JSON value) pairs describing the
/// conditions of the run; `errors` lists every failed correctness check.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::string>> regime;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  template <class T>
  void note(std::string key, const T& value) {
    std::ostringstream os;
    os << value;
    regime.emplace_back(std::move(key), os.str());
  }
  void note_str(std::string key, const std::string& value) {
    regime.emplace_back(std::move(key), "\"" + value + "\"");
  }
  void fail(std::string why) { errors.push_back(std::move(why)); }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds consumed by every thread of this process.
inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds consumed by the calling thread.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set size of this process (VmHWM), in MiB.
inline double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

/// Jiffies (all CPUs) since boot: {stolen by the hypervisor, total}.
inline std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double v = 0.0, total = 0.0, steal = 0.0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// Share of all CPUs' time the hypervisor stole since construction.
class StealMeter {
 public:
  double share() const {
    const auto now = cpu_jiffies();
    const double total = now.second - start_.second;
    return total > 0.0 ? (now.first - start_.first) / total : 0.0;
  }

 private:
  std::pair<double, double> start_ = cpu_jiffies();
};

/// A round during which the hypervisor stole more than this share of the
/// machine's CPU time ran on a host busy with other guests.
constexpr double kMaxRoundSteal = 0.02;
constexpr std::size_t kMinRounds = 3;

/// The rounds to measure: those not disturbed by stolen CPU time, or every
/// round when fewer than kMinRounds are undisturbed.  The regime record gets
/// the count of disturbed rounds under `key` and whether they were dropped.
template <class Round>
std::vector<Round> drop_disturbed(std::vector<Round> rounds, Result& out,
                                  const std::string& key) {
  std::size_t calm = 0;
  for (const Round& r : rounds) calm += r.steal <= kMaxRoundSteal ? 1 : 0;
  const bool drop = calm >= kMinRounds && calm < rounds.size();
  out.note(key, rounds.size() - calm);
  out.note(key + "_dropped", drop ? "true" : "false");
  if (!drop) return rounds;
  std::vector<Round> kept;
  for (Round& r : rounds) {
    if (r.steal <= kMaxRoundSteal) kept.push_back(std::move(r));
  }
  return kept;
}

/// The 1-, 5- and 15-minute load averages, as a JSON array.
inline std::string loadavg() {
  std::ifstream in("/proc/loadavg");
  double a = 0.0, b = 0.0, c = 0.0;
  in >> a >> b >> c;
  std::ostringstream os;
  os << '[' << a << ", " << b << ", " << c << ']';
  return os.str();
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// `v` as a JSON array with 4 significant digits (regime records).
inline std::string json_array(const std::vector<double>& v) {
  std::ostringstream os;
  os.precision(4);
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << ']';
  return os.str();
}

/// Relative difference (traced - untraced) / untraced, in percent.
inline double overhead_pct(double untraced, double traced) {
  return untraced != 0.0 ? 100.0 * (traced - untraced) / untraced : 0.0;
}

/// Written with the results of timed calls so the compiler cannot drop them.
inline volatile std::size_t g_sink = 0;

/// Mean cost of one HMAC-SHA256 over a `mac_bytes` message, of one USIG
/// create + verify pair and of one single-block SHA-256 digest (the
/// cheapest digest there is), timed by calling crypto:: directly on this
/// thread.
struct CryptoCosts {
  double hmac_us = 0.0;
  double usig_us = 0.0;
  double sha256_us = 0.0;
};
CryptoCosts time_crypto(std::size_t mac_bytes, Result& out);

Result run_request_path(const Args& args);

/// The paper's two-level control loop on the deterministic simulated lane,
/// run for `seconds` on its own (after the request path) in traced runs:
/// adds its per-layer metrics, checks and regime notes to `out`.
void measure_control_loop(std::uint64_t seed, double seconds, Result& out);

}  // namespace perfbench
