#include "tolerance/consensus/minbft_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "tolerance/crypto/fields.hpp"
#include "tolerance/util/ensure.hpp"

namespace tolerance::consensus {

namespace {

int default_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(4, static_cast<int>(hw));
}

MinBftRuntime::Options runtime_options(const net::NetworkProfile& profile,
                                       std::uint64_t seed,
                                       double flush_window) {
  MinBftRuntime::Options o;
  o.replica_link = profile.replica_link;
  o.client_link = profile.client_link;
  o.seed = seed;
  // One knob drives both lanes: the sim lane charges the modelled MAC cost
  // once per window, the wall-clock lane actually coalesces frames.
  o.flush_window = flush_window;
  return o;
}

}  // namespace

MinBftRuntimeCluster::MinBftRuntimeCluster(int num_replicas,
                                           MinBftConfig config,
                                           std::uint64_t seed,
                                           const net::NetworkProfile& profile,
                                           int threads)
    : config_(config), seed_(seed), profile_(profile),
      runtime_(default_threads(threads),
               runtime_options(profile, seed, config.mac_flush_window)),
      registry_(std::make_shared<crypto::KeyRegistry>()) {
  // The wall-clock lane always runs the hardened recovery protocol: a
  // restarted replica stays passive until its first state install (so it
  // cannot contradict votes it cast before the crash), and the commit
  // repair clock runs (frames genuinely vanish on this lane, and a single
  // lost commit otherwise wedges a peer forever).
  config_.passive_recovery = true;
  if (config_.commit_repair_timeout <= 0.0) config_.commit_repair_timeout = 1.0;
  TOL_ENSURE(num_replicas >= 2 * config.f + 1,
             "MinBFT requires N >= 2f + 1 (hybrid failure model)");
  for (int i = 0; i < num_replicas; ++i) {
    membership_.push_back(static_cast<ReplicaId>(i));
  }
  // All key material is registered before any traffic flows; a restart
  // re-registers the same (id, seed)-derived keys, which is idempotent.
  for (ReplicaId id : membership_) wire_replica(id);
}

void MinBftRuntimeCluster::wire_replica(ReplicaId id) {
  auto replica = std::make_unique<MinBftReplica>(
      id, membership_, config_, runtime_, registry_, seed_ ^ id,
      usig_epochs_[id]);
  MinBftReplica* raw = replica.get();
  replicas_[id] = std::move(replica);
  runtime_.register_host(id, [raw](net::NodeId from, const MinBftMsg& m) {
    raw->on_message(from, m);
  });
}

MinBftRuntimeCluster::~MinBftRuntimeCluster() { stop(); }

void MinBftRuntimeCluster::stop() {
  // Quiesce the transport FIRST: no event loop may touch a replica or
  // client object once their destruction (member teardown) begins.
  runtime_.stop();
}

MinBftReplica& MinBftRuntimeCluster::replica(ReplicaId id) {
  std::lock_guard<std::mutex> lk(chaos_mu_);
  const auto it = replicas_.find(id);
  TOL_ENSURE(it != replicas_.end(), "unknown (or crashed) replica id");
  return *it->second;
}

void MinBftRuntimeCluster::set_chaos(ChaosOptions chaos) {
  chaos.plan.normalize();
  std::lock_guard<std::mutex> lk(chaos_mu_);
  chaos_ = std::move(chaos);
  chaos_set_ = true;
  // Re-seed the injector from the plan so a chaos failure is re-runnable
  // from (plan, seed) alone.
  injector_ = std::make_unique<net::FaultInjector>(chaos_.plan.seed);
  runtime_.set_fault_injector(injector_.get());
}

net::FaultInjector& MinBftRuntimeCluster::injector() {
  std::lock_guard<std::mutex> lk(chaos_mu_);
  if (!injector_) {
    injector_ = std::make_unique<net::FaultInjector>(seed_ ^ 0xc4a05ull);
    runtime_.set_fault_injector(injector_.get());
  }
  return *injector_;
}

void MinBftRuntimeCluster::crash_replica(ReplicaId id) {
  std::unique_ptr<MinBftReplica> victim;
  {
    std::lock_guard<std::mutex> lk(chaos_mu_);
    const auto it = replicas_.find(id);
    if (it == replicas_.end()) return;  // already down
    // Preserve the final published counters for watchdog diagnostics.
    const MinBftReplica::ProgressCounters& p = it->second->progress();
    ReplicaDiag& d = last_diag_[id];
    d.replica = id;
    d.alive = false;
    d.committed_ops = p.committed_ops.load(std::memory_order_relaxed);
    d.view = p.view.load(std::memory_order_relaxed);
    d.st_attempts = p.st_attempts.load(std::memory_order_relaxed);
    d.st_completions = p.st_completions.load(std::memory_order_relaxed);
    d.st_giveups = p.st_giveups.load(std::memory_order_relaxed);
    victim = std::move(it->second);
    replicas_.erase(it);
    ++crashes_;
  }
  // Quiesce outside the lock: detach_host waits for any in-flight dispatch
  // burst to park, after which nothing can reach the object again (stray
  // timers post into a host that no longer exists and are dropped).
  runtime_.detach_host(id);
  victim.reset();
}

void MinBftRuntimeCluster::restart_replica(ReplicaId id) {
  MinBftReplica* raw = nullptr;
  {
    std::lock_guard<std::mutex> lk(chaos_mu_);
    if (replicas_.count(id) > 0) return;  // not crashed
    // The bumped epoch orders every post-restart UI after every pre-crash
    // one, so peers' monotonic-counter windows accept the rebooted signer
    // without remembering where its old counter stood.
    ++usig_epochs_[id];
    wire_replica(id);
    raw = replicas_[id].get();
    ++restarts_;
    last_diag_[id].alive = true;
  }
  // Rejoin via state transfer from the replica's own (fresh) event loop —
  // all protocol mutation stays loop-confined.
  runtime_.post(id, [raw]() { raw->request_state_transfer(); });
}

bool MinBftRuntimeCluster::is_crashed(ReplicaId id) const {
  std::lock_guard<std::mutex> lk(chaos_mu_);
  return replicas_.count(id) == 0;
}

std::vector<ReplicaId> MinBftRuntimeCluster::live_replicas() const {
  std::lock_guard<std::mutex> lk(chaos_mu_);
  std::vector<ReplicaId> ids;
  ids.reserve(replicas_.size());
  for (const auto& [id, replica] : replicas_) {
    (void)replica;
    ids.push_back(id);
  }
  return ids;
}

std::vector<ReplicaDiag> MinBftRuntimeCluster::sample_diags_locked() {
  std::vector<ReplicaDiag> diags;
  diags.reserve(membership_.size());
  for (const ReplicaId id : membership_) {
    const auto it = replicas_.find(id);
    if (it != replicas_.end()) {
      const MinBftReplica::ProgressCounters& p = it->second->progress();
      ReplicaDiag d;
      d.replica = id;
      d.alive = true;
      d.committed_ops = p.committed_ops.load(std::memory_order_relaxed);
      d.view = p.view.load(std::memory_order_relaxed);
      d.st_attempts = p.st_attempts.load(std::memory_order_relaxed);
      d.st_completions = p.st_completions.load(std::memory_order_relaxed);
      d.st_giveups = p.st_giveups.load(std::memory_order_relaxed);
      last_diag_[id] = d;
      diags.push_back(d);
    } else if (last_diag_.count(id) > 0) {
      diags.push_back(last_diag_[id]);
    }
  }
  return diags;
}

std::uint64_t MinBftRuntimeCluster::high_water_committed_locked() const {
  std::uint64_t high = 0;
  for (const auto& [id, replica] : replicas_) {
    (void)id;
    high = std::max(high, replica->progress().committed_ops.load(
                              std::memory_order_relaxed));
  }
  return high;
}

void MinBftRuntimeCluster::submit_next(ClientSlot* slot) {
  // Runs on the client's serial event loop (initial posts and completion
  // handlers both execute there), so slot state needs no lock.
  if (load_stopped_.load(std::memory_order_relaxed)) return;
  slot->client->submit(
      crypto::fields("w:", slot->id, ':', slot->serial++),
      [this, slot](std::uint64_t, const std::string&, double lat) {
        completed_.fetch_add(1, std::memory_order_relaxed);
        slot->latencies.push_back(lat);
        submit_next(slot);
      });
}

RuntimeLoadStats MinBftRuntimeCluster::run_closed_loop(
    int num_clients, double duration_seconds, int in_flight_per_client) {
  TOL_ENSURE(num_clients >= 1, "need at least one client");
  TOL_ENSURE(duration_seconds > 0.0, "duration must be positive");
  TOL_ENSURE(in_flight_per_client >= 1, "need at least one in-flight request");

  for (int c = 0; c < num_clients; ++c) {
    auto slot = std::make_unique<ClientSlot>();
    slot->id = static_cast<ClientId>(10000 + c);
    slot->client = std::make_unique<MinBftClient>(
        slot->id, config_.f, membership_, runtime_, registry_,
        seed_ ^ slot->id, config_.request_retry_timeout,
        config_.spec_fallback_timeout);
    MinBftClient* raw = slot->client.get();
    runtime_.register_host(slot->id,
                           [raw](net::NodeId from, const MinBftMsg& m) {
                             raw->on_message(from, m);
                           });
    clients_.push_back(std::move(slot));
  }

  const auto start = std::chrono::steady_clock::now();
  for (auto& slot : clients_) {
    ClientSlot* raw = slot.get();
    runtime_.post(raw->id, [this, raw, in_flight_per_client]() {
      for (int k = 0; k < in_flight_per_client; ++k) submit_next(raw);
    });
  }

  // One control loop waits out the measurement window, driving everything
  // the run needs a supervisor for: the profile's partition flaps (a
  // rotating minority of f replicas is split off — the cluster keeps its
  // 2f+1 quorum and must ride through), the chaos plan's scheduled faults,
  // timed expiry of injector rules, recovery-time tracking for restarted
  // replicas, and watchdog sampling.
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(duration_seconds));
  const double poll =
      chaos_set_ && chaos_.poll_interval > 0.0 ? chaos_.poll_interval : 0.01;
  if (chaos_set_ && chaos_.watchdog_window > 0.0) {
    watchdog_ = std::make_unique<LivenessWatchdog>(chaos_.watchdog_window);
  }
  // Injector rules armed by plan events, keyed by their expiry offset.
  struct PendingUndo {
    double at = 0.0;
    net::FaultEvent event;
  };
  std::vector<PendingUndo> undos;
  std::size_t next_event = 0;
  const bool flapping = profile_.flap_interval > 0.0 && config_.f > 0;
  std::size_t flap_round = 0;
  double next_flap = flapping ? profile_.flap_interval : 0.0;
  double flap_end = -1.0;  ///< < 0: no partition currently applied
  while (std::chrono::steady_clock::now() < deadline) {
    const double t =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    // -- profile flaps (non-blocking: heal is an expiry, not a sleep) ------
    if (flapping && flap_end >= 0.0 && t >= flap_end) {
      runtime_.heal_partition();
      flap_end = -1.0;
    }
    if (flapping && flap_end < 0.0 && t >= next_flap) {
      std::vector<net::NodeId> minority, majority;
      for (std::size_t i = 0; i < membership_.size(); ++i) {
        const ReplicaId id = membership_[i];
        if ((i + flap_round) % membership_.size() <
            static_cast<std::size_t>(config_.f)) {
          minority.push_back(id);
        } else {
          majority.push_back(id);
        }
      }
      runtime_.partition({majority, minority});
      flap_end = t + profile_.flap_duration;
      ++flap_round;
      next_flap += profile_.flap_interval;
    }
    // -- chaos plan events --------------------------------------------------
    while (chaos_set_ && next_event < chaos_.plan.events.size() &&
           chaos_.plan.events[next_event].at <= t) {
      const net::FaultEvent& ev = chaos_.plan.events[next_event++];
      switch (ev.kind) {
        case net::FaultKind::kCrash:
          crash_replica(ev.node);
          break;
        case net::FaultKind::kRestart: {
          restart_replica(ev.node);
          std::lock_guard<std::mutex> lk(chaos_mu_);
          recovering_.push_back({ev.node, t, high_water_committed_locked()});
          break;
        }
        case net::FaultKind::kCorruptFrames:
          injector().set_corrupt(ev.node, ev.rate);
          if (ev.duration > 0.0) undos.push_back({t + ev.duration, ev});
          break;
        case net::FaultKind::kDropPair:
          injector().set_drop(ev.node, ev.peer, ev.rate);
          if (ev.duration > 0.0) undos.push_back({t + ev.duration, ev});
          break;
        case net::FaultKind::kStallLoop: {
          // Occupy the node's serial loop: every message and timer for it
          // queues behind this busy job, exactly a wedged-but-alive node.
          const double stall = ev.duration;
          runtime_.post(ev.node, [stall]() {
            const auto until =
                std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(stall));
            while (std::chrono::steady_clock::now() < until) {
            }
          });
          break;
        }
      }
    }
    // -- expire injector rules ---------------------------------------------
    for (std::size_t i = 0; i < undos.size();) {
      if (undos[i].at <= t) {
        const net::FaultEvent& ev = undos[i].event;
        if (ev.kind == net::FaultKind::kCorruptFrames) {
          injector().set_corrupt(ev.node, 0.0);
        } else {
          injector().set_drop(ev.node, ev.peer, 0.0);
        }
        undos[i] = undos.back();
        undos.pop_back();
      } else {
        ++i;
      }
    }
    // -- recovery tracking + watchdog sampling ------------------------------
    {
      std::lock_guard<std::mutex> lk(chaos_mu_);
      for (std::size_t i = 0; i < recovering_.size();) {
        const PendingRecovery& rec = recovering_[i];
        const auto it = replicas_.find(rec.id);
        const bool caught_up =
            it != replicas_.end() &&
            it->second->progress().committed_ops.load(
                std::memory_order_relaxed) >= rec.target;
        if (caught_up) {
          recovery_seconds_.push_back(t - rec.started);
          recovering_[i] = recovering_.back();
          recovering_.pop_back();
        } else {
          ++i;
        }
      }
      if (watchdog_) watchdog_->sample(t, sample_diags_locked());
    }
    std::this_thread::sleep_for(std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(poll)));
  }
  if (flapping && flap_end >= 0.0) runtime_.heal_partition();

  const std::uint64_t completed = completed_.load(std::memory_order_relaxed);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  load_stopped_.store(true, std::memory_order_relaxed);
  runtime_.stop();  // drain loops; latencies vectors are safe to read now

  RuntimeLoadStats stats;
  stats.completed = completed;
  stats.elapsed_seconds = elapsed;
  stats.throughput = elapsed > 0.0 ? static_cast<double>(completed) / elapsed
                                   : 0.0;
  std::vector<double> lat;
  for (const auto& slot : clients_) {
    lat.insert(lat.end(), slot->latencies.begin(), slot->latencies.end());
  }
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    double sum = 0.0;
    for (double v : lat) sum += v;
    stats.mean_latency = sum / static_cast<double>(lat.size());
    stats.p50_latency = lat[lat.size() / 2];
    stats.p99_latency = lat[std::min(lat.size() - 1, lat.size() * 99 / 100)];
  }
  stats.dropped = runtime_.dropped_messages();
  stats.reordered = runtime_.reordered_messages();
  stats.overflow_dropped = runtime_.overflow_dropped();
  stats.decode_errors = runtime_.decode_errors();
  stats.handler_errors = runtime_.handler_errors();
  stats.auth_failures = runtime_.auth_failures();
  stats.macs_computed = runtime_.macs_computed();
  stats.bundled_frames = runtime_.bundled_frames();
  for (const auto& slot : clients_) {
    stats.completed_speculative += slot->client->completed_speculative_count();
  }
  // The runtime is quiesced: loop-confined replica state is safe to read
  // from here (stop() joined every drain), and the chaos maps are no longer
  // mutated by anyone.
  std::lock_guard<std::mutex> lk(chaos_mu_);
  for (const auto& [id, replica] : replicas_) {
    (void)id;
    stats.spec_executions += replica->spec_executions();
    stats.spec_rollbacks += replica->spec_rollbacks();
    stats.st_attempts += replica->state_transfer_attempts();
    stats.st_retries += replica->state_transfer_retries();
    stats.st_completions += replica->state_transfer_completions();
    stats.st_giveups += replica->state_transfer_giveups();
  }
  // Replicas that died and never came back still contributed transfers.
  for (const auto& [id, diag] : last_diag_) {
    if (replicas_.count(id) > 0) continue;
    stats.st_attempts += diag.st_attempts;
    stats.st_completions += diag.st_completions;
    stats.st_giveups += diag.st_giveups;
  }
  stats.crashes = crashes_;
  stats.restarts = restarts_;
  if (injector_) {
    stats.injected_drops = injector_->injected_drops();
    stats.injected_corruptions = injector_->injected_corruptions();
  }
  if (watchdog_) {
    stats.stall_reports = watchdog_->reports().size();
    stats.longest_commit_gap = watchdog_->longest_gap();
  }
  stats.recovery_seconds = recovery_seconds_;
  return stats;
}

}  // namespace tolerance::consensus
