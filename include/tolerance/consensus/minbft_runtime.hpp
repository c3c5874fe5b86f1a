// Wall-clock MinBFT harness: the same replica/client logic the simulated
// cluster (minbft_cluster.hpp) drives, wired onto net::AsyncRuntime instead
// of net::SimNetwork — per-replica event loops on the runtime's own loop
// threads, messages serialized through the wire codec, link shaping from a
// named net::NetworkProfile, and REAL HMAC-SHA256 crypto overlapping real I/O
// (the sim lane's modelled crypto costs are ignored here; the signatures
// themselves are computed either way and dominate for real).
//
// The closed-loop load driver mirrors the paper's §VII throughput
// measurement: each client keeps a fixed number of requests in flight,
// re-submitting from its completion handler (which runs on the client's own
// event loop, so the driver needs no locks around client state).
//
// One harness instance measures one data point: run_closed_loop() may be
// called once; it quiesces the runtime on return.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "tolerance/consensus/minbft_client.hpp"
#include "tolerance/consensus/minbft_replica.hpp"
#include "tolerance/consensus/watchdog.hpp"
#include "tolerance/net/async_runtime.hpp"
#include "tolerance/net/fault_injector.hpp"
#include "tolerance/net/wire.hpp"

namespace tolerance::consensus {

using MinBftRuntime = net::AsyncRuntime<MinBftMsg, net::MinBftCodec>;

/// One closed-loop measurement (the BENCH_runtime.json row).
struct RuntimeLoadStats {
  std::uint64_t completed = 0;    ///< requests completed within the window
  double elapsed_seconds = 0.0;   ///< measurement window length
  double throughput = 0.0;        ///< completed / elapsed (req/s)
  double mean_latency = 0.0;      ///< seconds, over all completions
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  // Transport accounting over the whole run.
  std::uint64_t dropped = 0;         ///< link-loss drops
  std::uint64_t reordered = 0;       ///< reorder-delayed messages
  std::uint64_t overflow_dropped = 0;///< inbound-queue drop-oldest evictions
  std::uint64_t decode_errors = 0;   ///< malformed frames (should be 0)
  std::uint64_t handler_errors = 0;  ///< handler exceptions (should be 0)
  std::uint64_t auth_failures = 0;   ///< bundle-tag rejections (should be 0)
  // Fast-path accounting (MAC batching + speculative execution).
  std::uint64_t macs_computed = 0;   ///< bundle authenticators at senders
  std::uint64_t bundled_frames = 0;  ///< frames those authenticators covered
  std::uint64_t completed_speculative = 0;  ///< n-of-n fast-path completions
  std::uint64_t spec_executions = 0;        ///< entries executed at PREPARE
  std::uint64_t spec_rollbacks = 0;         ///< speculative undo events
  // Chaos-lane accounting (all zero on a fault-free run).
  std::uint64_t crashes = 0;              ///< crash_replica invocations
  std::uint64_t restarts = 0;             ///< restart_replica invocations
  std::uint64_t injected_drops = 0;       ///< injector directed-pair drops
  std::uint64_t injected_corruptions = 0; ///< injector bit-flipped bundles
  std::uint64_t st_attempts = 0;     ///< state-transfer requests sent
  std::uint64_t st_retries = 0;      ///< re-requests beyond the first attempt
  std::uint64_t st_completions = 0;  ///< successful state installs
  std::uint64_t st_giveups = 0;      ///< cycles abandoned at max_attempts
  std::uint64_t stall_reports = 0;   ///< watchdog no-commit-window flags
  double longest_commit_gap = 0.0;   ///< seconds, watchdog's worst gap
  /// Seconds from each plan-driven restart until the restarted replica's
  /// committed count caught the cluster high-water mark at restart time.
  std::vector<double> recovery_seconds;
};

/// Chaos configuration for one closed-loop run.  The plan's node faults
/// (crash/restart/stall) are executed by the control loop at their `at`
/// offsets; corrupt/drop events toggle injector rules for their durations.
struct ChaosOptions {
  net::FaultPlan plan;
  /// Watchdog stall window in seconds; 0 disables the watchdog.
  double watchdog_window = 0.0;
  /// Control-loop poll period (fault execution + watchdog sampling).
  double poll_interval = 0.005;
};

class MinBftRuntimeCluster {
 public:
  /// `threads` loop threads for the runtime; 0 means the hardware
  /// concurrency (at least 4).
  /// Replica links and client links come from `profile`; if the profile
  /// flaps (flap_interval > 0), run_closed_loop periodically isolates a
  /// rotating minority of replicas for flap_duration seconds.
  MinBftRuntimeCluster(int num_replicas, MinBftConfig config,
                       std::uint64_t seed, const net::NetworkProfile& profile,
                       int threads = 0);
  ~MinBftRuntimeCluster();

  MinBftRuntimeCluster(const MinBftRuntimeCluster&) = delete;
  MinBftRuntimeCluster& operator=(const MinBftRuntimeCluster&) = delete;

  MinBftRuntime& runtime() { return runtime_; }
  MinBftReplica& replica(ReplicaId id);
  int replica_count() const { return static_cast<int>(replicas_.size()); }
  /// Key material, for tests that wire auxiliary clients onto the runtime.
  const std::shared_ptr<crypto::KeyRegistry>& registry() const {
    return registry_;
  }

  /// Drive `num_clients` closed-loop clients for `duration_seconds` of wall
  /// time, each keeping `in_flight_per_client` requests outstanding.
  /// Quiesces the transport before returning; call at most once.
  RuntimeLoadStats run_closed_loop(int num_clients, double duration_seconds,
                                   int in_flight_per_client = 1);

  /// Fence off traffic and drain every event loop (idempotent; the
  /// destructor calls it).
  void stop();

  // --- chaos surface -------------------------------------------------------

  /// Install a chaos schedule; call before run_closed_loop.  Re-seeds the
  /// fault injector from plan.seed and normalizes the plan.
  void set_chaos(ChaosOptions chaos);

  /// Crash `id` now: quiesce its event loop (no in-flight dispatch survives)
  /// and destroy the replica object — volatile state, USIG counter included,
  /// is genuinely gone.  Safe while traffic flows; callable from any thread.
  void crash_replica(ReplicaId id);

  /// Bring a crashed replica back with a bumped USIG epoch (its counter
  /// restarts at 1; the epoch ordering keeps peers' monotonicity checks
  /// sound) and kick a state-transfer cycle from its fresh event loop.
  void restart_replica(ReplicaId id);

  bool is_crashed(ReplicaId id) const;
  std::vector<ReplicaId> live_replicas() const;

  /// Lazily-created fault injector (shared with set_chaos).  Rules may be
  /// toggled while traffic flows.
  net::FaultInjector& injector();

  /// Non-null after a run with watchdog_window > 0.
  const LivenessWatchdog* watchdog() const { return watchdog_.get(); }

 private:
  struct ClientSlot {
    std::unique_ptr<MinBftClient> client;
    ClientId id = 0;
    std::vector<double> latencies;  ///< touched only by this client's loop
    std::uint64_t serial = 0;
  };

  /// A plan-driven restart whose catch-up is still being timed.
  struct PendingRecovery {
    ReplicaId id = 0;
    double started = 0.0;       ///< control-loop clock at restart
    std::uint64_t target = 0;   ///< cluster high-water committed at restart
  };

  void submit_next(ClientSlot* slot);
  /// Construct replica `id` at its current USIG epoch and register its
  /// event-loop handler (ctor and restart_replica share this).
  void wire_replica(ReplicaId id);
  /// Snapshot every replica's progress counters (crashed ones keep their
  /// last-published values, marked !alive).  Caller must hold chaos_mu_.
  std::vector<ReplicaDiag> sample_diags_locked();
  std::uint64_t high_water_committed_locked() const;

  MinBftConfig config_;
  std::uint64_t seed_;
  net::NetworkProfile profile_;
  MinBftRuntime runtime_;
  std::shared_ptr<crypto::KeyRegistry> registry_;
  std::vector<ReplicaId> membership_;
  /// Guards replicas_, usig_epochs_, last_diag_, chaos counters and the
  /// recovery list: the control loop, test threads and plan execution all
  /// mutate node liveness concurrently with each other (never with the
  /// event loops, which hold raw replica pointers and skip the map).
  mutable std::mutex chaos_mu_;
  std::map<ReplicaId, std::unique_ptr<MinBftReplica>> replicas_;
  std::map<ReplicaId, std::uint64_t> usig_epochs_;
  /// Last published counters per replica; survives the object across a
  /// crash so watchdog reports still show the dead node's final state.
  std::map<ReplicaId, ReplicaDiag> last_diag_;
  std::uint64_t crashes_ = 0;
  std::uint64_t restarts_ = 0;
  std::vector<PendingRecovery> recovering_;
  std::vector<double> recovery_seconds_;
  ChaosOptions chaos_;
  bool chaos_set_ = false;
  std::unique_ptr<net::FaultInjector> injector_;
  std::unique_ptr<LivenessWatchdog> watchdog_;
  std::vector<std::unique_ptr<ClientSlot>> clients_;
  std::atomic<bool> load_stopped_{false};
  std::atomic<std::uint64_t> completed_{0};
};

}  // namespace tolerance::consensus
