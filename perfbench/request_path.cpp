// The wall-clock request-path workloads (lan3-sat, wan7-fast): a MinBFT
// cluster on net::AsyncRuntime with real HMAC-SHA256, driven from outside
// through the library's public surface.
//
// A run is a sequence of rounds.  Each round builds a fresh cluster, commits
// one request (the end of set-up), then drives a fixed number of requests
// and checks the committed logs.  Fixed work per round keeps peak RSS and
// the per-round figures comparable between runs; the run repeats rounds
// until its time budget is spent and reports medians over rounds.
//
// Traced rounds wrap the replica and client handlers to time
// MinBftReplica::on_message / MinBftClient::on_message per message kind,
// sample messages for codec timing, and post timestamped jobs into each
// replica loop to measure queue wait.  Every trace record is owned by one
// node's event loop and read only after the runtime has stopped.  Traced
// runs leave the last kControlShare of their time to the control loop
// (control_loop.cpp), whose per-layer figures they report too.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "tolerance/consensus/minbft_runtime.hpp"
#include "tolerance/crypto/sha256.hpp"
#include "tolerance/net/profiles.hpp"
#include "tolerance/net/wire.hpp"
#include "tolerance/util/rng.hpp"

// The Fig. 10 wall-clock lane defines the protocol configs this benchmark
// runs (runtime_config / runtime_fast_config) and the committed-log
// invariant it checks (validate_committed_logs).  Its helpers live in an
// anonymous namespace of a bench binary, so the translation unit is compiled
// in here, with its main() renamed, instead of keeping a second copy.
#define main tolerance_fig10_main
#include "bench_fig10_minbft_throughput.cpp"
#undef main

namespace perfbench {
namespace {

namespace consensus = tolerance::consensus;
namespace crypto = tolerance::crypto;
namespace net = tolerance::net;
using consensus::MinBftClient;
using consensus::MinBftMsg;
using consensus::MinBftRuntime;
using consensus::MinBftRuntimeCluster;

/// One request-path workload.  `outstanding` > 0 is a closed loop with that
/// many requests in flight per client; otherwise an open-loop Poisson
/// generator offers `rate` req/s spread round-robin over the clients.
struct Lane {
  const char* name;
  int n;
  bool fast_path;
  const char* profile;
  int clients;
  int outstanding;
  double rate;
  int requests;  ///< measured requests per round
};

constexpr Lane kLanes[] = {
    {"lan3-sat", 3, false, "LAN", 4, 64, 0.0, 8000},
    {"wan7-fast", 7, true, "WAN", 4, 0, 500.0, 1000},
};

/// 2 event-loop threads; with the runtime's timer thread and the main thread
/// the process runs 4 threads.
constexpr int kLoopThreads = 2;
constexpr double kSetupTimeout = 10.0;
/// Share of a traced run's time given to the control loop.
constexpr double kControlShare = 0.4;
constexpr double kDrainSeconds = 10.0;
constexpr double kProbePeriod = 0.002;
constexpr std::uint64_t kSampleEvery = 16;
constexpr std::size_t kMaxSamples = 4000;

constexpr const char* kKindNames[] = {
    "request",        "prepare",         "commit",         "reply",
    "checkpoint",     "req_view_change", "view_change",    "new_view",
    "state_request",  "state_response",  "fetch_prepare",  "relayed_prepare",
    "overloaded"};
constexpr std::size_t kKinds = std::variant_size_v<MinBftMsg>;
static_assert(std::size(kKindNames) == kKinds, "one name per message kind");

/// Per-node trace record, touched only by the node's own event loop while
/// the runtime runs.
struct LoopTrace {
  std::array<double, kKinds> handler_s{};
  std::array<std::uint64_t, kKinds> handler_n{};
  std::uint64_t seen = 0;
  std::vector<MinBftMsg> samples;
  std::vector<double> waits;

  void record(const MinBftMsg& m, double seconds) {
    handler_s[m.index()] += seconds;
    ++handler_n[m.index()];
    if (seen++ % kSampleEvery == 0 && samples.size() < kMaxSamples) {
      samples.push_back(m);
    }
  }
};

struct Slot {
  std::unique_ptr<MinBftClient> client;
  consensus::ClientId id = 0;
  std::uint64_t next_serial = 0;
  std::uint64_t quota = 0;  ///< closed loop: last serial to submit
  std::vector<double> latencies;
  LoopTrace trace;
};

std::string op_for(const Slot& s, std::uint64_t serial) {
  return "w:" + std::to_string(s.id) + ":" + std::to_string(serial);
}

/// What one round measured.
struct RoundStats {
  double setup_s = 0.0;
  double window_s = 0.0;
  double cpu_s = 0.0;
  double steal = 0.0;  ///< share of machine time stolen during the window
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::vector<double> latencies;  ///< seconds
  std::vector<double> lateness;   ///< generator, seconds
  // Traced rounds only.
  std::uint64_t sha256 = 0;
  std::uint64_t frames = 0;
  std::uint64_t macs = 0;
  std::uint64_t bundled = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;
  std::uint64_t speculative = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t max_view = 0;
  std::array<double, kKinds> handler_s{};
  std::array<std::uint64_t, kKinds> handler_n{};
  double client_handler_s = 0.0;
  std::uint64_t client_handler_n = 0;
  std::vector<MinBftMsg> samples;
  std::vector<double> waits;
};

/// One round: a fresh cluster, set-up through one committed request, the
/// measured load, drain, and the correctness checks.
class Round {
 public:
  Round(const Lane& lane, std::uint64_t seed, bool traced, Result& out)
      : lane_(lane), seed_(seed), traced_(traced), out_(out) {}

  ~Round() {
    // Quiesce every loop before the clients behind the handlers go away.
    if (cluster_) cluster_->stop();
  }

  Round(const Round&) = delete;
  Round& operator=(const Round&) = delete;

  RoundStats run() {
    const auto t0 = Clock::now();
    setup();
    stats_.setup_s = seconds_since(t0);
    if (!out_.errors.empty()) return stats_;
    measure();
    drain_and_check();
    return stats_;
  }

 private:
  consensus::MinBftConfig config() const {
    return lane_.fast_path ? runtime_fast_config(lane_.n)
                           : runtime_config(lane_.n);
  }

  static net::NetworkProfile profile(const char* name) {
    net::NetworkProfile p = *net::NetworkProfile::by_name(name);
    // Delays and jitter from the catalog; loss and reordering belong to the
    // chaos lane (a lost frame waits out the 1 s retry timer).
    for (net::LinkConfig* link : {&p.replica_link, &p.client_link}) {
      link->loss = 0.0;
      link->reorder = 0.0;
      link->reorder_delay = 0.0;
    }
    return p;
  }

  void setup() {
    const consensus::MinBftConfig cfg = config();
    cluster_ = std::make_unique<MinBftRuntimeCluster>(
        lane_.n, cfg, seed_, profile(lane_.profile), kLoopThreads);
    MinBftRuntime& rt = cluster_->runtime();
    if (traced_) {
      replica_traces_.resize(static_cast<std::size_t>(lane_.n));
      for (int i = 0; i < lane_.n; ++i) {
        const auto id = static_cast<consensus::ReplicaId>(i);
        consensus::MinBftReplica* r = &cluster_->replica(id);
        LoopTrace* tr = &replica_traces_[static_cast<std::size_t>(i)];
        // Replaces the cluster's own registration before any traffic.
        rt.register_host(id, [r, tr](net::NodeId from, const MinBftMsg& m) {
          const auto start = Clock::now();
          r->on_message(from, m);
          tr->record(m, seconds_since(start));
        });
      }
    }
    std::vector<consensus::ReplicaId> replicas;
    for (int i = 0; i < lane_.n; ++i) {
      replicas.push_back(static_cast<consensus::ReplicaId>(i));
    }
    for (int c = 0; c < lane_.clients; ++c) {
      auto slot = std::make_unique<Slot>();
      slot->id = static_cast<consensus::ClientId>(10000 + c);
      slot->client = std::make_unique<MinBftClient>(
          slot->id, cfg.f, replicas, rt, cluster_->registry(),
          seed_ ^ slot->id, cfg.request_retry_timeout,
          cfg.spec_fallback_timeout);
      MinBftClient* client = slot->client.get();
      if (traced_) {
        LoopTrace* tr = &slot->trace;
        rt.register_host(slot->id,
                         [client, tr](net::NodeId from, const MinBftMsg& m) {
                           const auto start = Clock::now();
                           client->on_message(from, m);
                           tr->record(m, seconds_since(start));
                         });
      } else {
        rt.register_host(slot->id, [client](net::NodeId from,
                                            const MinBftMsg& m) {
          client->on_message(from, m);
        });
      }
      slots_.push_back(std::move(slot));
    }
    // Set-up ends with the first committed request.
    Slot* first = slots_.front().get();
    rt.post(first->id, [this, first]() {
      first->client->submit(op_for(*first, first->next_serial++),
                            [this](std::uint64_t, const std::string&,
                                   double) { setup_done_.store(true); });
    });
    const auto deadline = Clock::now() + to_duration(kSetupTimeout);
    while (!setup_done_.load() && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (!setup_done_.load()) {
      out_.fail(std::string(lane_.name) + ": set-up request not committed");
    }
    ++warmups_;
  }

  static Clock::duration to_duration(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  }

  void submit_closed(Slot* s) {
    if (s->next_serial > s->quota) return;
    const auto sent = Clock::now();
    s->client->submit(op_for(*s, s->next_serial++),
                      [this, s, sent](std::uint64_t, const std::string&,
                                      double) {
                        s->latencies.push_back(seconds_since(sent));
                        completed_.fetch_add(1, std::memory_order_relaxed);
                        submit_closed(s);
                      });
  }

  void submit_due(Slot* s, Clock::time_point due) {
    s->client->submit(op_for(*s, s->next_serial++),
                      [this, s, due](std::uint64_t, const std::string&,
                                     double) {
                        s->latencies.push_back(seconds_since(due));
                        completed_.fetch_add(1, std::memory_order_relaxed);
                      });
  }

  void post_probes() {
    MinBftRuntime& rt = cluster_->runtime();
    const auto posted = Clock::now();
    for (int i = 0; i < lane_.n; ++i) {
      LoopTrace* tr = &replica_traces_[static_cast<std::size_t>(i)];
      rt.post(static_cast<net::NodeId>(i), [tr, posted]() {
        tr->waits.push_back(seconds_since(posted));
      });
    }
  }

  void measure() {
    MinBftRuntime& rt = cluster_->runtime();
    const auto total = static_cast<std::uint64_t>(lane_.requests);
    stats_.attempted = total;
    // Open-loop arrival offsets, from the round's seed.
    std::vector<double> due;
    if (lane_.outstanding == 0) {
      tolerance::Rng rng(seed_ ^ 0xa11ce5ULL);
      double t = 0.0;
      for (std::uint64_t i = 0; i < total; ++i) {
        t += rng.exponential(lane_.rate);
        due.push_back(t);
      }
    }
    const std::uint64_t sha0 = crypto::Sha256::invocations();
    const std::uint64_t frames0 = rt.delivered_frames();
    const std::uint64_t macs0 = rt.macs_computed();
    const std::uint64_t bundled0 = rt.bundled_frames();
    const double cpu0 = process_cpu_seconds();
    const StealMeter steal;
    const auto start = Clock::now();
    if (lane_.outstanding > 0) {
      // Split the fixed total over the clients; each keeps `outstanding`
      // requests in flight until its quota is submitted.
      const auto share = total / slots_.size();
      auto extra = total % slots_.size();
      for (auto& slot : slots_) {
        Slot* s = slot.get();
        s->quota = s->next_serial + share - 1 + (extra > 0 ? 1 : 0);
        if (extra > 0) --extra;
        rt.post(s->id, [this, s]() {
          for (int k = 0; k < lane_.outstanding; ++k) submit_closed(s);
        });
      }
    }
    const double budget =
        lane_.outstanding > 0 ? 60.0 : due.back() + kDrainSeconds;
    const auto deadline = start + to_duration(budget);
    std::size_t next = 0;
    auto next_probe = start;
    for (;;) {
      const auto now = Clock::now();
      if (next < due.size() && now >= start + to_duration(due[next])) {
        const auto due_at = start + to_duration(due[next]);
        Slot* s = slots_[next % slots_.size()].get();
        rt.post(s->id, [this, s, due_at]() { submit_due(s, due_at); });
        stats_.lateness.push_back(
            std::chrono::duration<double>(now - due_at).count());
        ++next;
        continue;
      }
      if (traced_ && now >= next_probe) {
        post_probes();
        next_probe += to_duration(kProbePeriod);
        continue;
      }
      if (next == due.size() &&
          completed_.load(std::memory_order_relaxed) >= total) {
        break;
      }
      if (now >= deadline) break;
      auto wake = now + std::chrono::milliseconds(1);
      if (next < due.size()) {
        wake = std::min(wake, start + to_duration(due[next]));
      }
      if (traced_) wake = std::min(wake, next_probe);
      std::this_thread::sleep_until(wake);
    }
    stats_.window_s = seconds_since(start);
    stats_.cpu_s = process_cpu_seconds() - cpu0;
    stats_.steal = steal.share();
    stats_.completed = completed_.load();
    stats_.sha256 = crypto::Sha256::invocations() - sha0;
    stats_.frames = rt.delivered_frames() - frames0;
    stats_.macs = rt.macs_computed() - macs0;
    stats_.bundled = rt.bundled_frames() - bundled0;
  }

  void drain_and_check() {
    const std::string lane = lane_.name;
    if (stats_.completed < stats_.attempted) {
      out_.fail(lane + ": " +
                std::to_string(stats_.attempted - stats_.completed) +
                " requests not completed by the drain deadline");
    }
    // Let every replica commit the whole log before fencing the runtime
    // (speculative completions run ahead of the commit round).
    const std::uint64_t expected = stats_.completed + warmups_;
    const auto deadline = Clock::now() + to_duration(kDrainSeconds);
    const auto all_committed = [&]() {
      for (int i = 0; i < lane_.n; ++i) {
        const auto& p =
            cluster_->replica(static_cast<consensus::ReplicaId>(i)).progress();
        if (p.committed_ops.load(std::memory_order_relaxed) < expected) {
          return false;
        }
      }
      return true;
    };
    while (!all_committed() && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cluster_->stop();
    MinBftRuntime& rt = cluster_->runtime();
    const std::string invariant = validate_committed_logs(*cluster_);
    if (!invariant.empty()) out_.fail(lane + ": " + invariant);
    for (int i = 0; i < lane_.n; ++i) {
      auto& r = cluster_->replica(static_cast<consensus::ReplicaId>(i));
      if (r.committed_log_size() != expected) {
        out_.fail(lane + ": replica " + std::to_string(i) + " committed " +
                  std::to_string(r.committed_log_size()) + " of " +
                  std::to_string(expected) + " operations");
      }
      if (r.view() != 0) {
        out_.fail(lane + ": view change on a fault-free run (replica " +
                  std::to_string(i) + " in view " + std::to_string(r.view()) +
                  ")");
      }
      stats_.batches += r.batches_proposed();
      stats_.batched_requests += r.requests_proposed();
      stats_.rollbacks += r.spec_rollbacks();
      stats_.max_view = std::max<std::uint64_t>(stats_.max_view, r.view());
    }
    if (rt.decode_errors() + rt.handler_errors() + rt.auth_failures() > 0) {
      out_.fail(lane + ": transport errors (decode " +
                std::to_string(rt.decode_errors()) + ", handler " +
                std::to_string(rt.handler_errors()) + ", auth " +
                std::to_string(rt.auth_failures()) + ")");
    }
    for (const auto& slot : slots_) {
      stats_.latencies.insert(stats_.latencies.end(), slot->latencies.begin(),
                              slot->latencies.end());
      stats_.speculative += slot->client->completed_speculative_count();
      for (std::size_t k = 0; k < kKinds; ++k) {
        stats_.client_handler_s += slot->trace.handler_s[k];
        stats_.client_handler_n += slot->trace.handler_n[k];
      }
    }
    for (LoopTrace& tr : replica_traces_) {
      for (std::size_t k = 0; k < kKinds; ++k) {
        stats_.handler_s[k] += tr.handler_s[k];
        stats_.handler_n[k] += tr.handler_n[k];
      }
      stats_.samples.insert(stats_.samples.end(), tr.samples.begin(),
                            tr.samples.end());
      stats_.waits.insert(stats_.waits.end(), tr.waits.begin(),
                          tr.waits.end());
    }
  }

  const Lane& lane_;
  std::uint64_t seed_;
  bool traced_;
  Result& out_;
  RoundStats stats_;
  std::uint64_t warmups_ = 0;
  std::atomic<bool> setup_done_{false};
  std::atomic<std::uint64_t> completed_{0};
  std::unique_ptr<MinBftRuntimeCluster> cluster_;
  // Declared after the cluster: destroyed first, once ~Round stopped it.
  std::vector<LoopTrace> replica_traces_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// Mean of `fn` over `reps` calls, in microseconds.
template <class Fn>
double time_us(int reps, Fn&& fn) {
  const auto start = Clock::now();
  for (int i = 0; i < reps; ++i) fn(i);
  return 1e6 * seconds_since(start) / reps;
}

/// Codec and crypto costs at the message sizes the traced rounds observed,
/// timed by calling the layers directly on this thread.
struct LayerCosts {
  double encode_us = 0.0;
  double decode_us = 0.0;
  double frame_bytes = 0.0;
  double hmac_bytes = 0.0;
  CryptoCosts crypto;
};

LayerCosts time_layers(const std::vector<MinBftMsg>& samples,
                       double mac_amortization, Result& out) {
  LayerCosts c;
  if (samples.empty()) return c;
  std::vector<std::vector<std::uint8_t>> encoded;
  encoded.reserve(samples.size());
  double bytes = 0.0;
  for (const MinBftMsg& m : samples) {
    encoded.push_back(net::MinBftCodec::encode(m));
    bytes += static_cast<double>(encoded.back().size());
  }
  c.frame_bytes = bytes / static_cast<double>(samples.size());
  const int n = static_cast<int>(samples.size());
  constexpr int kPasses = 5;
  c.encode_us = time_us(kPasses * n, [&](int i) {
    g_sink = g_sink + net::MinBftCodec::encode(
                          samples[static_cast<std::size_t>(i % n)]).size();
  });
  std::size_t bad = 0;
  c.decode_us = time_us(kPasses * n, [&](int i) {
    const auto m =
        net::MinBftCodec::decode(encoded[static_cast<std::size_t>(i % n)]);
    if (!m) ++bad;
  });
  if (bad > 0) out.fail("codec: sampled frames failed to decode");
  // A bundle carries `mac_amortization` frames, each behind a length varint.
  c.hmac_bytes = mac_amortization * (c.frame_bytes + 2.0) + 1.0;
  c.crypto = time_crypto(static_cast<std::size_t>(c.hmac_bytes), out);
  return c;
}

}  // namespace

Result run_request_path(const Args& args) {
  const Lane* lane = nullptr;
  for (const Lane& l : kLanes) {
    if (args.workload == l.name) lane = &l;
  }
  Result out;
  if (lane == nullptr) {
    out.fail("unknown workload " + args.workload);
    return out;
  }
  const auto cfg = lane->fast_path ? runtime_fast_config(lane->n)
                                   : runtime_config(lane->n);
  const net::NetworkProfile prof = *net::NetworkProfile::by_name(lane->profile);
  out.note("cores", std::thread::hardware_concurrency());
  out.note("threads", kLoopThreads + 2);
  out.note("replicas", lane->n);
  out.note("clients", lane->clients);
  if (lane->outstanding > 0) {
    out.note_str("load", "closed");
    out.note("outstanding_per_client", lane->outstanding);
  } else {
    out.note_str("load", "open-poisson");
    out.note("offered_rps", lane->rate);
  }
  out.note("requests_per_round", lane->requests);
  out.note_str("profile", lane->profile);
  out.note("replica_delay_ms", prof.replica_link.base_delay * 1e3);
  out.note("replica_jitter_ms", prof.replica_link.jitter * 1e3);
  out.note("client_delay_ms", prof.client_link.base_delay * 1e3);
  out.note("client_jitter_ms", prof.client_link.jitter * 1e3);
  out.note_str("protocol", lane->fast_path ? "fig10-fast" : "fig10-baseline");
  out.note("batch_size", cfg.batch_size);
  out.note("pipeline_depth", cfg.pipeline_depth);
  out.note("speculative", cfg.speculative ? "true" : "false");
  out.note("mac_flush_window_ms", cfg.mac_flush_window * 1e3);

  // Untraced rounds give the end-to-end figures; with --trace 1, traced
  // rounds alternate with untraced ones so the overhead is measured too.
  std::vector<RoundStats> plain, traced;
  const auto start = Clock::now();
  const double path_seconds =
      args.trace ? (1.0 - kControlShare) * args.seconds : args.seconds;
  // Round 0 warms the process up (heap growth, first-touch page faults,
  // cold caches): it is checked like every round but not measured.
  for (std::uint64_t round = 0;; ++round) {
    const auto round_start = Clock::now();
    const bool trace_round = args.trace && round % 2 == 0 && round > 0;
    Round r(*lane, args.seed * 1000003ULL + round, trace_round, out);
    RoundStats s = r.run();
    out.attempted += s.attempted + 1;  // + the set-up request
    out.failed += s.attempted - std::min(s.attempted, s.completed);
    if (!out.errors.empty()) break;
    if (round > 0) (trace_round ? traced : plain).push_back(std::move(s));
    const bool enough = !plain.empty() && (!args.trace || !traced.empty());
    // Stop when one more round of the same length would overrun the budget.
    if (enough && seconds_since(start) + seconds_since(round_start) >
                      path_seconds) {
      break;
    }
  }
  if (!out.errors.empty()) return out;
  out.note("measured_rounds", plain.size() + traced.size());
  plain = drop_disturbed(std::move(plain), out, "disturbed_rounds");
  traced = drop_disturbed(std::move(traced), out, "disturbed_traced_rounds");

  // Latency percentiles are taken per round (every round does the same
  // work) and the run reports their median over rounds, so one round that
  // a neighbour on the host disturbed does not set the run's tail.
  std::vector<double> setup, rps, cpu_us, p50, p99, late;
  std::size_t samples = 0;
  for (const RoundStats& s : plain) {
    setup.push_back(s.setup_s);
    rps.push_back(static_cast<double>(s.completed) / s.window_s);
    cpu_us.push_back(1e6 * s.cpu_s / static_cast<double>(s.completed));
    p50.push_back(1e3 * quantile(s.latencies, 0.5));
    p99.push_back(1e3 * quantile(s.latencies, 0.99));
    samples += s.latencies.size();
    late.insert(late.end(), s.lateness.begin(), s.lateness.end());
  }
  out.note("round_ops_per_s", json_array(rps));
  out.note("latency_samples", samples);
  out.note("round_lat_p99_ms", json_array(p99));
  out.note("gen_late_ms_p50", 1e3 * quantile(late, 0.5));
  out.note("gen_late_ms_p99", 1e3 * quantile(late, 0.99));
  if (!args.trace) {
    out.metric("setup_s", median(setup), "s");
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    out.metric("ops_per_s", median(rps), "1/s");
    out.metric("cpu_us_per_op", median(cpu_us), "us");
    out.metric("lat_p50_ms", median(p50), "ms");
    out.metric("lat_p99_ms", median(p99), "ms");
    return out;
  }

  // --- per-layer attribution from the traced rounds ------------------------
  RoundStats t;
  std::vector<double> t_rps, t_p50, t_late;
  for (RoundStats& s : traced) {
    t.window_s += s.window_s;
    t.cpu_s += s.cpu_s;
    t.completed += s.completed;
    t.sha256 += s.sha256;
    t.frames += s.frames;
    t.macs += s.macs;
    t.bundled += s.bundled;
    t.batches += s.batches;
    t.batched_requests += s.batched_requests;
    t.speculative += s.speculative;
    t.rollbacks += s.rollbacks;
    t.max_view = std::max(t.max_view, s.max_view);
    for (std::size_t k = 0; k < kKinds; ++k) {
      t.handler_s[k] += s.handler_s[k];
      t.handler_n[k] += s.handler_n[k];
    }
    t.client_handler_s += s.client_handler_s;
    t.client_handler_n += s.client_handler_n;
    t.samples.insert(t.samples.end(), s.samples.begin(), s.samples.end());
    t.waits.insert(t.waits.end(), s.waits.begin(), s.waits.end());
    t_rps.push_back(static_cast<double>(s.completed) / s.window_s);
    t_p50.push_back(1e3 * quantile(s.latencies, 0.5));
    t_late.insert(t_late.end(), s.lateness.begin(), s.lateness.end());
  }
  const double ops = static_cast<double>(t.completed);
  const double amort = t.macs > 0 ? static_cast<double>(t.bundled) /
                                        static_cast<double>(t.macs)
                                  : 0.0;
  const LayerCosts costs = time_layers(t.samples, amort, out);
  const double sha_per_req = static_cast<double>(t.sha256) / ops;
  const auto handler_us = [&](std::size_t k) {
    return t.handler_n[k] > 0
               ? 1e6 * t.handler_s[k] / static_cast<double>(t.handler_n[k])
               : 0.0;
  };
  out.metric("crypto.sha256_per_req", sha_per_req, "count");
  out.metric("crypto.hmac_us", costs.crypto.hmac_us, "us");
  out.metric("crypto.usig_us", costs.crypto.usig_us, "us");
  // A lower bound: every digest is priced as the cheapest, single-block one.
  out.metric("crypto.sha256_us", costs.crypto.sha256_us, "us");
  out.metric("crypto.cpu_share",
             static_cast<double>(t.sha256) * costs.crypto.sha256_us /
                 (1e6 * t.cpu_s),
             "share");
  out.metric("net.frames_per_req", static_cast<double>(t.frames) / ops,
             "count");
  out.metric("net.bytes_per_req",
             static_cast<double>(t.frames) * costs.frame_bytes / ops, "bytes");
  out.metric("net.encode_us", costs.encode_us, "us");
  out.metric("net.decode_us", costs.decode_us, "us");
  out.metric("net.mac_amortization", amort, "frames/mac");
  out.metric("net.loop_wait_ms_p50", 1e3 * quantile(t.waits, 0.5), "ms");
  out.metric("net.loop_wait_ms_p99", 1e3 * quantile(t.waits, 0.99), "ms");
  out.metric("net.gen_late_ms_p99", 1e3 * quantile(t_late, 0.99), "ms");
  for (const char* kind : {"request", "prepare", "commit", "checkpoint"}) {
    const auto k = static_cast<std::size_t>(
        std::find(std::begin(kKindNames), std::end(kKindNames),
                  std::string_view(kind)) -
        std::begin(kKindNames));
    out.metric(std::string("consensus.handler_us.") + kind, handler_us(k),
               "us");
  }
  const double client_calls = static_cast<double>(t.client_handler_n);
  out.metric("consensus.client_handler_us",
             client_calls > 0 ? 1e6 * t.client_handler_s / client_calls : 0.0,
             "us");
  out.metric("consensus.reqs_per_batch",
             t.batches > 0 ? static_cast<double>(t.batched_requests) /
                                 static_cast<double>(t.batches)
                           : 0.0,
             "count");
  // Client counters cover each round's set-up request too.
  out.metric("consensus.spec_share",
             static_cast<double>(t.speculative) /
                 (ops + static_cast<double>(traced.size())),
             "share");
  out.metric("consensus.spec_rollbacks", static_cast<double>(t.rollbacks),
             "count");
  out.metric("consensus.final_view", static_cast<double>(t.max_view),
             "count");
  // The headline is what the load leaves free to move: throughput in a
  // closed loop, latency under an open loop's fixed offered rate.
  const bool by_rate = lane->outstanding > 0;
  const double untraced_head = by_rate ? median(rps) : median(p50);
  const double traced_head = by_rate ? median(t_rps) : median(t_p50);
  out.note_str("headline", by_rate ? "ops_per_s" : "lat_p50_ms");
  out.metric("trace.overhead_pct", overhead_pct(untraced_head, traced_head),
             "%");
  // Bases of the ratios above.
  out.metric("base.ops", ops, "count");
  out.metric("base.cpu_s", t.cpu_s, "s");
  out.metric("base.sha256", static_cast<double>(t.sha256), "count");
  out.metric("base.frames", static_cast<double>(t.frames), "count");
  out.metric("base.macs", static_cast<double>(t.macs), "count");
  out.metric("base.frame_bytes", costs.frame_bytes, "bytes");
  out.metric("base.hmac_bytes", costs.hmac_bytes, "bytes");
  out.metric("base.loop_wait_samples", static_cast<double>(t.waits.size()),
             "count");
  measure_control_loop(args.seed, args.seconds - seconds_since(start), out);
  return out;
}

}  // namespace perfbench
