// Hot-path microbenchmarks (google-benchmark): belief updates, crypto
// primitives, simplex solves, IP backups, simulator steps, consensus rounds,
// wall-clock runtime deliveries.
#include <benchmark/benchmark.h>

#include <chrono>
#include <condition_variable>
#include <ctime>
#include <mutex>

#include "tolerance/consensus/minbft_cluster.hpp"
#include "tolerance/crypto/hmac.hpp"
#include "tolerance/crypto/sha256.hpp"
#include "tolerance/crypto/usig.hpp"
#include "tolerance/emulation/testbed.hpp"
#include "tolerance/net/async_runtime.hpp"
#include "tolerance/net/wire.hpp"
#include "tolerance/pomdp/belief.hpp"
#include "tolerance/solvers/cmdp_lp.hpp"
#include "tolerance/solvers/incremental_pruning.hpp"

namespace {

using namespace tolerance;

pomdp::NodeParams params() {
  pomdp::NodeParams p;
  p.p_attack = 0.1;
  p.p_crash_healthy = 1e-5;
  p.p_crash_compromised = 1e-3;
  p.p_update = 2e-2;
  return p;
}

void BM_BeliefUpdate(benchmark::State& state) {
  const pomdp::NodeModel model(params());
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  const pomdp::BeliefUpdater updater(model, obs);
  double b = 0.1;
  int o = 0;
  for (auto _ : state) {
    b = updater.update(b, pomdp::NodeAction::Wait, o);
    o = (o + 3) % 11;
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_BeliefUpdate);

void BM_Sha256_1KiB(benchmark::State& state) {
  const std::string data(1024, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

// One compression: a 32-byte input (a digest of a digest) pads into a
// single block, the cheapest SHA-256 there is.
void BM_Sha256_OneBlock(benchmark::State& state) {
  const std::string data(32, 'd');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
}
BENCHMARK(BM_Sha256_OneBlock);

// A MAC under a long-lived key with cached ipad/opad midstates, at the
// runtime's mean authenticated-bundle size (88 bytes).  BM_HmacSign below
// rebuilds the key on every call.
void BM_HmacKeySign(benchmark::State& state) {
  const crypto::HmacKey key(std::string(32, 'k'));
  const std::string body(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(body));
  }
}
BENCHMARK(BM_HmacKeySign)->Arg(88);

void BM_HmacSign(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256("key", "a service request"));
  }
}
BENCHMARK(BM_HmacSign);

void BM_UsigCreateVerify(benchmark::State& state) {
  auto registry = std::make_shared<crypto::KeyRegistry>();
  const std::string secret =
      registry->register_principal(1 + crypto::kUsigPrincipalOffset, 7);
  crypto::Usig usig(1, secret);
  const auto digest = crypto::Sha256::hash("op");
  for (auto _ : state) {
    const auto ui = usig.create(digest);
    benchmark::DoNotOptimize(crypto::Usig::verify(*registry, digest, ui));
  }
}
BENCHMARK(BM_UsigCreateVerify);

void BM_ReplicationLp(benchmark::State& state) {
  const auto cmdp = pomdp::SystemCmdp::parametric(
      static_cast<int>(state.range(0)), 3, 0.9, 0.95, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solvers::solve_replication_lp(cmdp));
  }
}
BENCHMARK(BM_ReplicationLp)->Arg(16)->Arg(64);

void BM_IncrementalPruningCycle(benchmark::State& state) {
  const pomdp::NodeModel model(params());
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solvers::IncrementalPruning::solve_cycle(
        model, obs, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_IncrementalPruningCycle)->Arg(5)->Arg(25);

void BM_TestbedStep(benchmark::State& state) {
  emulation::TestbedConfig config;
  config.initial_nodes = 9;
  emulation::Testbed testbed(config, 3);
  for (auto _ : state) {
    testbed.step();
    benchmark::DoNotOptimize(testbed.failed_count());
  }
}
BENCHMARK(BM_TestbedStep);

// The digest-memo satellite: a PREPARE body digest is computed once and
// served from the memo afterwards.  `sha256_runs` counts actual SHA-256
// finalizations per iteration — ~0 for the memoized path, batch+2 for the
// fresh path (the work every sign/verify/conflict check used to redo).
consensus::Prepare sample_prepare(int batch) {
  consensus::Prepare p;
  p.view = 3;
  p.seq = 41;
  for (int i = 0; i < batch; ++i) {
    consensus::Request r;
    r.client = 10000;
    r.request_id = static_cast<std::uint64_t>(i);
    r.operation = "write:key" + std::to_string(i);
    p.requests.push_back(std::move(r));
  }
  return p;
}

void BM_PrepareDigestMemoized(benchmark::State& state) {
  const auto p = sample_prepare(static_cast<int>(state.range(0)));
  (void)p.body_digest();  // warm the memo
  const std::uint64_t before = crypto::Sha256::invocations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.body_digest());
  }
  state.counters["sha256_runs"] = benchmark::Counter(
      static_cast<double>(crypto::Sha256::invocations() - before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PrepareDigestMemoized)->Arg(1)->Arg(16);

void BM_PrepareDigestFresh(benchmark::State& state) {
  auto p = sample_prepare(static_cast<int>(state.range(0)));
  const std::uint64_t before = crypto::Sha256::invocations();
  for (auto _ : state) {
    p.invalidate_digests();  // what every call paid before memoization
    benchmark::DoNotOptimize(p.body_digest());
  }
  state.counters["sha256_runs"] = benchmark::Counter(
      static_cast<double>(crypto::Sha256::invocations() - before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PrepareDigestFresh)->Arg(1)->Arg(16);

// Per-stage cost of the Prepare handler, each on a fresh message (no digest
// memo to hit), in the order a follower pays them for one request of a
// batch: verify the client's request, execute it, build + sign the reply
// (and the client's verify of it); plus the Commit body digest the handler
// signs and every peer checks.
void BM_RequestVerifyFresh(benchmark::State& state) {
  crypto::KeyRegistry registry;
  const crypto::Signer client(10000, registry.register_principal(10000, 1));
  consensus::Request r;
  r.client = 10000;
  r.request_id = 123456;
  r.operation = "w:10000:123456";
  r.signature = client.sign(r.payload());
  for (auto _ : state) {
    r.invalidate_digests();
    benchmark::DoNotOptimize(r.digest());
    benchmark::DoNotOptimize(registry.verify(r.payload(), r.signature));
  }
}
BENCHMARK(BM_RequestVerifyFresh);

void BM_ServiceExecute(benchmark::State& state) {
  consensus::ReplicatedService service;
  const std::string op = "w:10000:123456";
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.execute(op));
  }
}
BENCHMARK(BM_ServiceExecute);

void BM_ReplyBuildSignVerify(benchmark::State& state) {
  crypto::KeyRegistry registry;
  const crypto::Signer replica(1, registry.register_principal(1, 1));
  std::uint64_t request_id = 0;
  for (auto _ : state) {
    consensus::Reply reply;
    reply.replica = 1;
    reply.client = 10000;
    reply.request_id = ++request_id;
    reply.result = "ok:1234567";
    reply.signature = replica.sign(reply.payload());
    benchmark::DoNotOptimize(registry.verify(reply.payload(), reply.signature));
  }
}
BENCHMARK(BM_ReplyBuildSignVerify);

void BM_CommitDigestFresh(benchmark::State& state) {
  consensus::Commit c;
  c.view = 3;
  c.seq = 41;
  c.replica = 2;
  c.batch_digest = crypto::Sha256::hash("batch");
  c.leader_ui = {1, 0, 41, crypto::Sha256::hash("ui")};
  for (auto _ : state) {
    c.invalidate_digests();
    benchmark::DoNotOptimize(c.body_digest());
  }
}
BENCHMARK(BM_CommitDigestFresh);

void BM_MinBftRequestRound(benchmark::State& state) {
  consensus::MinBftConfig cfg;
  cfg.f = 1;
  net::LinkConfig link;
  link.loss = 0.0;
  link.jitter = 0.0;
  consensus::MinBftCluster cluster(3, cfg, 5, link);
  auto& client = cluster.add_client();
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster.submit_and_run(client, "op" + std::to_string(i++)));
  }
}
BENCHMARK(BM_MinBftRequestRound);

struct HopCodec {
  static net::wire::Bytes encode(const std::uint64_t& hop) {
    net::wire::Writer w;
    w.varint(hop);
    return w.take();
  }
  static std::optional<std::uint64_t> decode(const std::uint8_t* data,
                                             std::size_t len) {
    net::wire::Reader r(data, len);
    auto hop = r.varint();
    if (!hop || !r.done()) return std::nullopt;
    return hop;
  }
};

// One AsyncRuntime dispatch: two hosts on a two-loop runtime bounce a token
// kHops times, each delivery sending it back, over a link of Arg
// microseconds delay (0 = the direct path, > 0 = a timer-released frame).
// One iteration is the whole chain; us_per_frame is its wall time per
// delivered frame (codec, bundle MAC, shaping, the link delay and the loop
// hand-off) and cpu_us_per_frame the process CPU per frame.
void BM_RuntimeDelivery(benchmark::State& state) {
  using HopRuntime = net::AsyncRuntime<std::uint64_t, HopCodec>;
  constexpr std::uint64_t kHops = 200;
  HopRuntime::Options o;
  o.replica_link.base_delay = static_cast<double>(state.range(0)) * 1e-6;
  o.replica_link.jitter = 0.0;
  o.replica_link.loss = 0.0;
  HopRuntime rt(2, o);
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  for (net::NodeId self : {1u, 2u}) {
    rt.register_host(self, [&, self](net::NodeId from,
                                     const std::uint64_t& hop) {
      if (hop + 1 < kHops) {
        rt.send(self, from, hop + 1);
        return;
      }
      std::lock_guard<std::mutex> lk(mu);
      done = true;
      cv.notify_one();
    });
  }
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  for (auto _ : state) {
    {
      std::lock_guard<std::mutex> lk(mu);
      done = false;
    }
    const std::clock_t cpu0 = std::clock();
    const auto t0 = std::chrono::steady_clock::now();
    rt.send(1, 2, 0);
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&]() { return done; });
    }
    wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    cpu_seconds += static_cast<double>(std::clock() - cpu0) / CLOCKS_PER_SEC;
  }
  rt.stop();
  const double frames = static_cast<double>(state.iterations()) * kHops;
  state.counters["us_per_frame"] = wall_seconds * 1e6 / frames;
  state.counters["cpu_us_per_frame"] = cpu_seconds * 1e6 / frames;
}
BENCHMARK(BM_RuntimeDelivery)
    ->Arg(0)
    ->Arg(200)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
