// Real-time event-driven transport: the wall-clock lane.
//
// Where net::SimNetwork advances a simulated clock over one global event
// queue, AsyncRuntime runs every registered node as a serial event loop
// multiplexed onto the runtime's own loop threads: messages are serialized
// through a wire codec at the sender, shaped by the same LinkConfig knobs
// (delay, jitter, loss, reorder, partitions) the simulator honors, and
// decoded into a private copy on the receiver's loop — so real crypto
// (HMAC-SHA256 signatures, USIG certificates) overlaps real I/O across
// cores, and no C++ object is ever shared between two node loops.
//
// Structure per node:
//  * a bounded inbound frame queue — overflow drops the OLDEST frame
//    (clients retransmit; dropping new frames would starve retransmissions
//    behind stale backlog) and is accounted per node and globally;
//  * an unbounded local job queue for timer callbacks and posted closures
//    (protocol timers must not be lost to backpressure);
//  * a `draining` flag ensuring at most one loop thread dispatches the node
//    at a time — the loop is serial, handlers never race with their own
//    timers.
//
// Scheduling: one lock guards a timer heap and a queue of ready nodes.  Each
// loop thread fires due timers, else drains a bounded burst of one ready
// node, else waits — so the loop that releases a delay-shaped frame drains
// the receiver itself.  One loop at a time fires, in deadline order (two at
// once could reorder a FIFO channel); one idle loop waits for the earliest
// deadline, the others untimed; a ready node wakes a loop only when ready
// nodes outnumber the loops heading for the queue; a loop starting a job
// (possibly long) first enlists an idle one to watch the deadlines.  Timer
// ids share SimNetwork's cancellation semantics (cancel is a no-op for dead
// ids, the cancelled set stays bounded).
//
// Authenticator batching (the wall-clock fast path): every frame travels
// inside a bundle authenticated by one HMAC-SHA256 tag under a per-directed-
// pair link key (modelling pre-shared session keys).  With flush_window = 0
// each message is its own bundle — the classic one-MAC-per-message cost.
// With flush_window > 0 outbound frames per destination coalesce behind a
// short flush timer, so one authenticator (and one shaping/queueing pass)
// covers the whole flush; the receiver verifies the single tag, then
// decodes and dispatches each frame in order.  A bundle that fails
// authentication is dropped whole and counted (auth_failures).
//
// Shutdown: stop() fences off new sends, posts and timers (each becomes a
// no-op), lets the loops finish the nodes already queued, and joins them.
// The destructor calls stop().
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "tolerance/crypto/hmac.hpp"
#include "tolerance/net/fault_injector.hpp"
#include "tolerance/net/profiles.hpp"
#include "tolerance/net/transport.hpp"
#include "tolerance/util/ensure.hpp"
#include "tolerance/util/rng.hpp"

namespace tolerance::net {

/// `Codec` must provide
///   static std::vector<std::uint8_t> encode(const Msg&);
///   static std::optional<Msg> decode(const std::uint8_t*, std::size_t);
/// (net::MinBftCodec is the in-tree instance, wire.hpp).
template <class Msg, class Codec>
class AsyncRuntime final : public Transport<Msg> {
 public:
  using Handler = typename Transport<Msg>::Handler;
  using Bytes = std::vector<std::uint8_t>;

  struct Options {
    LinkConfig replica_link{};  ///< links among ids below client_floor
    LinkConfig client_link{};   ///< links touching ids >= client_floor
    NodeId client_floor = 10000;
    /// Inbound frame queue capacity per node (drop-oldest beyond).
    std::size_t inbound_capacity = 4096;
    /// Honor consume_cpu by burning real CPU on the calling loop.  Off by
    /// default: the wall-clock lane measures the real crypto the node
    /// actually performs, not the sim lane's modelled costs.
    bool honor_cpu_costs = false;
    /// Outbound authenticator-batching window in seconds.  0 ships every
    /// message as its own authenticated bundle (one HMAC per message);
    /// > 0 coalesces frames per destination for up to this long so one
    /// HMAC-SHA256 tag covers the whole flush.
    double flush_window = 0.0;
    /// Size trigger for the coalescing window: a buffered bundle that
    /// reaches this many frames ships immediately instead of waiting out
    /// the window, so a high-rate pair pays amortized MACs without the
    /// full window's latency tax.
    std::size_t flush_max_frames = 16;
    std::uint64_t seed = 1;  ///< loss/jitter/reorder draws + link keys
  };

  /// Starts `loop_threads` (>= 1) event-loop threads, joined by stop().
  AsyncRuntime(int loop_threads, Options options)
      : options_(std::move(options)), rng_(options_.seed),
        start_(std::chrono::steady_clock::now()) {
    TOL_ENSURE(options_.inbound_capacity >= 1,
               "inbound queue capacity must be positive");
    TOL_ENSURE(loop_threads >= 1, "the runtime needs at least one loop thread");
    for (int i = 0; i < loop_threads; ++i) {
      loops_.emplace_back([this]() { run_loop(); });
    }
  }

  ~AsyncRuntime() override { stop(); }

  AsyncRuntime(const AsyncRuntime&) = delete;
  AsyncRuntime& operator=(const AsyncRuntime&) = delete;

  // --- Transport -----------------------------------------------------------

  double now() const override {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  void register_host(NodeId id, Handler handler) override {
    auto host = std::make_shared<Host>();
    host->id = id;
    host->handler = std::move(handler);
    std::lock_guard<std::mutex> lk(hosts_mu_);
    hosts_[id] = std::move(host);
  }

  void unregister_host(NodeId id) override { remove_host(id); }

  /// unregister_host plus a quiesce wait: returns only once no loop is
  /// dispatching into the host, so the caller may destroy the object behind
  /// the (now cleared) handler.  This is the crash path of the chaos lane —
  /// plain unregister_host only guarantees that a drain observes the cleared
  /// handler *before its next dispatch*, not that an in-flight one finished.
  void detach_host(NodeId id) {
    const std::shared_ptr<Host> host = remove_host(id);
    if (!host) return;
    // An in-flight drain copied the handler before we cleared it and may be
    // mid-dispatch; `draining` stays true until that burst parks on the
    // emptied queues.  Crash-path only, so a short sleep-poll is fine.
    for (;;) {
      {
        std::lock_guard<std::mutex> lk(host->mu);
        if (!host->draining) return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  bool is_registered(NodeId id) const override {
    std::lock_guard<std::mutex> lk(hosts_mu_);
    return hosts_.count(id) > 0;
  }

  void send(NodeId from, NodeId to, Msg msg) override {
    transmit(from, to,
             std::make_shared<const Bytes>(Codec::encode(msg)));
  }

  void broadcast(NodeId from, const std::vector<NodeId>& recipients,
                 const Msg& msg) override {
    // One serialization for the whole fan-out; receivers decode privately.
    const auto bytes = std::make_shared<const Bytes>(Codec::encode(msg));
    for (NodeId to : recipients) {
      if (to != from) transmit(from, to, bytes);
    }
  }

  std::uint64_t schedule(NodeId owner, double delay,
                         std::function<void()> fn) override {
    TOL_ENSURE(delay >= 0.0, "delay must be non-negative");
    return push_timer(Timer{std::chrono::steady_clock::now() + span(delay), 0,
                            0, 0, owner, nullptr, std::move(fn)});
  }

  void cancel(std::uint64_t timer_id) override {
    std::lock_guard<std::mutex> lk(sched_mu_);
    if (live_timers_.count(timer_id) > 0) cancelled_.insert(timer_id);
  }

  /// The wall-clock lane's nodes burn real CPU; the modelled cost is only
  /// honored when the runtime is configured to emulate slower hardware.
  void consume_cpu(NodeId node, double seconds) override {
    (void)node;
    if (!options_.honor_cpu_costs || seconds <= 0.0) return;
    const auto deadline = std::chrono::steady_clock::now() + span(seconds);
    while (std::chrono::steady_clock::now() < deadline) {
      // Busy-wait: the node's loop thread is genuinely occupied, which is
      // the semantics consume_cpu models.
    }
  }

  // --- runtime-specific surface --------------------------------------------

  /// Run `fn` on `owner`'s serial event loop (e.g. the initial closed-loop
  /// client submissions, which must not race the client's own loop).
  void post(NodeId owner, std::function<void()> fn) {
    if (stop_requested_.load(std::memory_order_acquire)) return;
    const auto host = find_host(owner);
    if (!host) return;
    std::lock_guard<std::mutex> lk(host->mu);
    if (!host->handler) return;
    host->jobs.push_back(std::move(fn));
    maybe_start_drain_locked(host);
  }

  /// Attach (or detach, with nullptr) a chaos-lane fault injector.  Consulted
  /// on the sender path for every outbound bundle AFTER the authenticator is
  /// computed — injected corruption therefore always lands on authenticated
  /// bytes and dies in the receiver's HMAC check, never in a codec or
  /// handler.  The injector must outlive the runtime (the cluster harness
  /// owns both).
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }

  /// Block / unblock a bidirectional pair, and partition semantics matching
  /// SimNetwork (a new grouping wholesale-replaces the previous one).
  void set_blocked(NodeId a, NodeId b, bool blocked) {
    std::lock_guard<std::mutex> lk(net_state_mu_);
    if (blocked) {
      blocked_.insert(ordered(a, b));
    } else {
      blocked_.erase(ordered(a, b));
    }
  }

  void partition(const std::vector<std::vector<NodeId>>& groups) {
    std::lock_guard<std::mutex> lk(net_state_mu_);
    partition_blocked_.clear();
    std::unordered_map<NodeId, int> group_of;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (NodeId n : groups[g]) group_of[n] = static_cast<int>(g);
    }
    for (const auto& [a, ga] : group_of) {
      for (const auto& [b, gb] : group_of) {
        if (a < b && ga != gb) partition_blocked_.insert({a, b});
      }
    }
  }

  void heal_partition() {
    std::lock_guard<std::mutex> lk(net_state_mu_);
    partition_blocked_.clear();
  }

  /// Fence off new sends, posts and timers, let the loops finish the nodes
  /// already queued, and join them.  Pending timers never fire.  Idempotent;
  /// called by the destructor; must not be called from a loop thread.
  void stop() {
    stop_requested_.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lk(sched_mu_);
      stopping_ = true;
    }
    work_cv_.notify_all();
    timer_cv_.notify_all();
    for (std::thread& loop : loops_) {
      if (loop.joinable()) loop.join();
    }
  }

  // --- accounting ----------------------------------------------------------

  std::uint64_t dropped_messages() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t reordered_messages() const {
    return reordered_.load(std::memory_order_relaxed);
  }
  /// Frames evicted from full inbound queues (drop-oldest), totalled.
  std::uint64_t overflow_dropped() const {
    return overflow_.load(std::memory_order_relaxed);
  }
  std::uint64_t overflow_dropped(NodeId id) const {
    const auto host = find_host(id);
    if (!host) return 0;
    std::lock_guard<std::mutex> lk(host->mu);
    return host->overflow;
  }
  /// Frames waiting in `id`'s bounded inbox — the wall-clock lane's queue*
  /// input to admission control (same meaning as SimNetwork's per-receiver
  /// FIFO depth, so both lanes feed the pressure loop identically).
  std::size_t queue_depth(NodeId id) const override {
    const auto host = find_host(id);
    if (!host) return 0;
    std::lock_guard<std::mutex> lk(host->mu);
    return host->inbox.size();
  }
  std::uint64_t decode_errors() const {
    return decode_errors_.load(std::memory_order_relaxed);
  }
  std::uint64_t handler_errors() const {
    return handler_errors_.load(std::memory_order_relaxed);
  }
  std::uint64_t delivered_frames() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  /// Bundle authenticators computed at senders (== bundles shipped); the
  /// amortization the flush window buys is bundled_frames / macs_computed.
  std::uint64_t macs_computed() const {
    return macs_computed_.load(std::memory_order_relaxed);
  }
  /// Frames carried inside those bundles.
  std::uint64_t bundled_frames() const {
    return bundled_frames_.load(std::memory_order_relaxed);
  }
  /// Bundles dropped whole because their HMAC tag did not verify.
  std::uint64_t auth_failures() const {
    return auth_failures_.load(std::memory_order_relaxed);
  }

  /// Test hook: enqueue raw bytes at `to` as if they arrived from `from`,
  /// bypassing the sender path — how a tampered or spoofed bundle reaches
  /// the authentication check.
  void inject_frame(NodeId from, NodeId to, Bytes raw) {
    enqueue_frame(to, Frame{from, std::make_shared<const Bytes>(std::move(raw))});
  }
  std::size_t live_timer_count() const {
    std::lock_guard<std::mutex> lk(sched_mu_);
    return live_timers_.size();
  }
  std::size_t cancelled_pending() const {
    std::lock_guard<std::mutex> lk(sched_mu_);
    return cancelled_.size();
  }

 private:
  struct Frame {
    NodeId from = 0;
    std::shared_ptr<const Bytes> bytes;
  };

  struct Host {
    mutable std::mutex mu;
    NodeId id = 0;
    Handler handler;
    std::deque<Frame> inbox;                    ///< bounded, drop-oldest
    std::deque<std::function<void()>> jobs;     ///< timers/posts, unbounded
    bool draining = false;
    std::uint64_t overflow = 0;
  };

  /// A timer-heap entry: a user timer (`fn`, posted onto `to`'s loop), a
  /// delay-shaped frame release (`bytes`), or else a flush of the (from, to)
  /// coalescing buffer.  The last two run on the loop that fires them.
  struct Timer {
    std::chrono::steady_clock::time_point when{};
    std::uint64_t seq = 0;  ///< insertion order: equal deadlines fire FIFO
    std::uint64_t id = 0;   ///< user timer id; 0 = internal (not cancellable)
    NodeId from = 0, to = 0;
    std::shared_ptr<const Bytes> bytes;
    std::function<void()> fn;
    bool operator>(const Timer& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  static std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  /// Unregister `id` and clear its handler under the host lock, so an
  /// in-flight drain observes the removal and stops dispatching (frames
  /// already queued are dropped).  Returns the removed host, if any.
  std::shared_ptr<Host> remove_host(NodeId id) {
    std::shared_ptr<Host> host;
    {
      std::lock_guard<std::mutex> lk(hosts_mu_);
      const auto it = hosts_.find(id);
      if (it == hosts_.end()) return nullptr;
      host = std::move(it->second);
      hosts_.erase(it);
    }
    std::lock_guard<std::mutex> lk(host->mu);
    host->handler = nullptr;
    host->inbox.clear();
    host->jobs.clear();
    return host;
  }

  static std::chrono::steady_clock::duration span(double seconds) {
    return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(seconds));
  }

  std::shared_ptr<Host> find_host(NodeId id) const {
    std::lock_guard<std::mutex> lk(hosts_mu_);
    const auto it = hosts_.find(id);
    return it == hosts_.end() ? nullptr : it->second;
  }

  const LinkConfig& link_for(NodeId from, NodeId to) const {
    return (from >= options_.client_floor || to >= options_.client_floor)
               ? options_.client_link
               : options_.replica_link;
  }

  // --- authenticator batching ----------------------------------------------

  /// Pre-shared link key per directed pair, derived from the runtime seed
  /// (a closed system: every legitimate sender/receiver pair shares it).
  static std::string pair_key(std::uint64_t seed, NodeId from, NodeId to) {
    return "link:" + std::to_string(seed) + ":" + std::to_string(from) + ">" +
           std::to_string(to);
  }

  /// The pair's link key with its HMAC midstates, from a direct-mapped
  /// cache private to the calling thread, indexed by the pair and tagged
  /// with the full (seed, from, to).  The key is a pure function of that
  /// triple, so a hit is exact whichever runtime or node loop filled the
  /// slot, and the per-frame path takes no lock and touches no shared
  /// atomic.  A collision (or another runtime's seed on the same pair) only
  /// costs re-deriving the key.  The reference is valid until this
  /// thread's next link_key call.
  const crypto::HmacKey& link_key(NodeId from, NodeId to) const {
    struct Slot {
      std::uint64_t seed = 0;
      NodeId from = 0;
      NodeId to = 0;
      std::optional<crypto::HmacKey> key;
    };
    constexpr std::size_t kSlots = 256;  // the top 8 bits of a Fibonacci hash
    thread_local std::unique_ptr<std::array<Slot, kSlots>> cache;
    if (!cache) cache = std::make_unique<std::array<Slot, kSlots>>();
    const std::uint64_t pair =
        (static_cast<std::uint64_t>(from) << 32) | static_cast<std::uint64_t>(to);
    Slot& slot = (*cache)[(pair * 0x9E3779B97F4A7C15ull) >> 56];
    if (!slot.key || slot.seed != options_.seed || slot.from != from ||
        slot.to != to) {
      slot.seed = options_.seed;
      slot.from = from;
      slot.to = to;
      slot.key.emplace(pair_key(options_.seed, from, to));
    }
    return *slot.key;
  }

  static void put_varint(Bytes& out, std::uint64_t v) {
    while (v >= 0x80) {
      out.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
  }

  static bool get_varint(const Bytes& b, std::size_t& pos,
                         std::uint64_t& out) {
    out = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos >= b.size()) return false;
      const std::uint8_t byte = b[pos++];
      out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return true;
    }
    return false;
  }

  /// Bundle layout: varint frame count, then per frame a varint length and
  /// the frame bytes, then the 32-byte HMAC-SHA256 tag over everything
  /// before it.
  std::shared_ptr<const Bytes> make_bundle(
      NodeId from, NodeId to,
      const std::vector<std::shared_ptr<const Bytes>>& frames) {
    Bytes out;
    std::size_t payload = 0;
    for (const auto& f : frames) payload += f->size() + 10;
    out.reserve(payload + crypto::Digest{}.size() + 4);
    put_varint(out, frames.size());
    for (const auto& f : frames) {
      put_varint(out, f->size());
      out.insert(out.end(), f->begin(), f->end());
    }
    const crypto::Digest tag = link_key(from, to).sign(std::string_view(
        reinterpret_cast<const char*>(out.data()), out.size()));
    out.insert(out.end(), tag.begin(), tag.end());
    macs_computed_.fetch_add(1, std::memory_order_relaxed);
    bundled_frames_.fetch_add(frames.size(), std::memory_order_relaxed);
    return std::make_shared<const Bytes>(std::move(out));
  }

  void transmit(NodeId from, NodeId to,
                std::shared_ptr<const Bytes> bytes) {
    // The stop fence must cover the zero-delay fast path too: a handler
    // that sends on every delivery (closed-loop traffic) would otherwise
    // keep its own loop busy forever and stop() could never drain it.
    if (stop_requested_.load(std::memory_order_acquire)) return;
    if (options_.flush_window <= 0.0) {
      // One bundle (and one authenticator) per message.
      ship_bundle(from, to, make_bundle(from, to, {std::move(bytes)}));
      return;
    }
    // Nagle-style coalescing: a message onto a quiet channel ships at once
    // (batching must not tax the latency-critical first message of a burst);
    // messages that FOLLOW within the window — the N^2 fan-out bursts of a
    // loaded consensus step — buffer behind one flush timer and share one
    // authenticator.  Per pair that bounds the MAC (and shaping) rate to two
    // bundles per window, and FIFO order is preserved: while anything is
    // buffered or armed, nothing bypasses the queue.
    const auto window = span(options_.flush_window);
    bool ship_now = false;
    bool arm = false;
    std::vector<std::shared_ptr<const Bytes>> full;  // size-triggered flush
    {
      BundleShard& shard = shard_for(from);
      std::lock_guard<std::mutex> lk(shard.mu);
      const auto now_tp = std::chrono::steady_clock::now();
      PairState& pair = shard.pairs[{from, to}];
      if (pair.queued.empty() && !pair.armed &&
          now_tp - pair.last_ship >= window) {
        pair.last_ship = now_tp;
        ship_now = true;
      }
      if (!ship_now) {
        pair.queued.push_back(std::move(bytes));
        if (pair.queued.size() >= options_.flush_max_frames) {
          // Full bundle: ship at once.  A pending flush timer (if armed)
          // finds an empty queue and no-ops.
          full.swap(pair.queued);
          pair.last_ship = now_tp;
        } else if (!pair.armed) {
          pair.armed = true;
          arm = true;
        }
      }
    }
    if (ship_now) {
      // Outside the shard lock: make_bundle runs real crypto and
      // ship_bundle takes the shaping locks.
      ship_bundle(from, to, make_bundle(from, to, {std::move(bytes)}));
      return;
    }
    if (!full.empty()) {
      ship_bundle(from, to, make_bundle(from, to, full));
      return;
    }
    if (!arm) return;  // an earlier message already armed the flush
    // Arm the per-pair flush: fired by a loop like the delay-shaped frame
    // releases, not posted behind the sender's own queue.
    push_timer(Timer{std::chrono::steady_clock::now() + window, 0, 0, from, to,
                     nullptr, {}});
  }

  void flush_pair(NodeId from, NodeId to) {
    std::vector<std::shared_ptr<const Bytes>> frames;
    {
      BundleShard& shard = shard_for(from);
      std::lock_guard<std::mutex> lk(shard.mu);
      const auto it = shard.pairs.find({from, to});
      if (it == shard.pairs.end()) return;
      frames.swap(it->second.queued);
      it->second.armed = false;
      if (!frames.empty()) {
        it->second.last_ship = std::chrono::steady_clock::now();
      }
    }
    if (frames.empty()) return;
    ship_bundle(from, to, make_bundle(from, to, frames));
  }

  /// Link shaping, FIFO-channel clamping, and delivery of one authenticated
  /// bundle — the loss/jitter/reorder draws apply per bundle, exactly like
  /// the packets a real network would carry.
  void ship_bundle(NodeId from, NodeId to,
                   std::shared_ptr<const Bytes> bytes) {
    if (stop_requested_.load(std::memory_order_acquire)) return;
    {
      std::lock_guard<std::mutex> lk(net_state_mu_);
      const auto key = ordered(from, to);
      if (blocked_.count(key) > 0 || partition_blocked_.count(key) > 0) {
        return;
      }
    }
    if (FaultInjector* fi =
            fault_injector_.load(std::memory_order_acquire)) {
      switch (fi->on_bundle(from, to)) {
        case FaultInjector::Action::kDrop:
          return;
        case FaultInjector::Action::kCorrupt: {
          // Corrupt a private copy: broadcast fan-outs share `bytes`, and
          // only this directed pair drew the fault.
          Bytes mangled = *bytes;
          fi->corrupt(mangled);
          bytes = std::make_shared<const Bytes>(std::move(mangled));
          break;
        }
        case FaultInjector::Action::kDeliver:
          break;
      }
    }
    const LinkConfig& cfg = link_for(from, to);
    double delay = cfg.base_delay;
    {
      std::lock_guard<std::mutex> lk(rng_mu_);
      if (rng_.bernoulli(cfg.loss)) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (cfg.jitter > 0.0) delay += rng_.uniform(0.0, cfg.jitter);
      if (cfg.reorder > 0.0 && rng_.bernoulli(cfg.reorder)) {
        delay += cfg.reorder_delay;
        reordered_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    const auto now_tp = std::chrono::steady_clock::now();
    auto when = now_tp + span(delay);
    {
      // FIFO per directed pair, like the TCP channels a real deployment
      // runs on: jitter and reorder delays stretch latency, but a message
      // never overtakes an earlier one on the same channel.  (MinBFT's
      // counter-freshness check permanently discards a leapfrogged
      // counter, so a transport without this guarantee stalls the
      // protocol; the simulator gets the same property from its per-node
      // arrival-order inbound queues.)
      std::lock_guard<std::mutex> lk(channel_mu_);
      auto& frontier = channel_frontier_[{from, to}];
      if (when < frontier) when = frontier;
      frontier = when;
    }
    if (when <= now_tp) {
      enqueue_frame(to, Frame{from, std::move(bytes)});
      return;
    }
    push_timer(Timer{when, 0, 0, from, to, std::move(bytes), {}});
  }

  void enqueue_frame(NodeId to, Frame frame) {
    const auto host = find_host(to);
    if (!host) return;
    std::lock_guard<std::mutex> lk(host->mu);
    if (!host->handler) return;
    if (host->inbox.size() >= options_.inbound_capacity) {
      host->inbox.pop_front();
      host->overflow += 1;
      overflow_.fetch_add(1, std::memory_order_relaxed);
    }
    host->inbox.push_back(std::move(frame));
    maybe_start_drain_locked(host);
  }

  // Requires host->mu held (it ranks above sched_mu_).  After stop() no node
  // is queued: a node left `draining` would make detach_host wait forever.
  void maybe_start_drain_locked(const std::shared_ptr<Host>& host) {
    if (host->draining) return;
    std::lock_guard<std::mutex> lk(sched_mu_);
    if (stopping_) return;
    host->draining = true;
    push_ready_locked(host, 0);
  }

  /// Queue a ready node; wake an idle loop if ready nodes outnumber the loops
  /// heading for the queue (woken ones, the firing loop, and `self` = 1 when
  /// the caller is a loop that returns to the queue next).
  void push_ready_locked(std::shared_ptr<Host> host, int self) {
    ready_.push_back(std::move(host));
    const int takers = wakers_ + self + (dispatching_ ? 1 : 0);
    if (static_cast<int>(ready_.size()) > takers) wake_loop_locked();
  }

  /// Wake one idle loop, preferring the untimed waiters to the watcher.
  void wake_loop_locked() {
    if (idle_ > wakers_) {
      ++wakers_;
      work_cv_.notify_one();
    } else if (timed_waiter_) {
      timer_cv_.notify_one();
    }
  }

  /// If no loop watches the deadlines (waits for them or fires), enlist one.
  void enlist_watcher_locked() {
    if (!timed_waiter_ && !dispatching_ && !timers_.empty()) wake_loop_locked();
  }

  /// Queue a timer unless stop() has begun.  Returns the id of a user timer
  /// (one with `fn`), else 0 — and cancel(0) is a no-op.
  std::uint64_t push_timer(Timer timer) {
    std::lock_guard<std::mutex> lk(sched_mu_);
    if (stopping_) return 0;
    if (timer.fn) {
      timer.id = next_timer_id_++;
      live_timers_.insert(timer.id);
    }
    const std::uint64_t id = timer.id;
    timer.seq = next_timer_seq_++;
    const bool new_front = timers_.empty() || timer.when < timers_.front().when;
    timers_.push_back(std::move(timer));
    std::push_heap(timers_.begin(), timers_.end(), std::greater<>{});
    if (new_front && timed_waiter_) {
      timer_cv_.notify_one();  // a later deadline leaves its wake-up standing
    } else if (new_front) {
      enlist_watcher_locked();
    }
    return id;
  }

  /// One loop thread: fire due timers, else drain a burst of the first ready
  /// node, else wait (for the earliest deadline if no loop watches it).
  void run_loop() {
    std::unique_lock<std::mutex> lk(sched_mu_);
    for (;;) {
      if (!stopping_ && !dispatching_ && !timers_.empty() &&
          timers_.front().when <= std::chrono::steady_clock::now()) {
        fire_due(lk);
        continue;
      }
      if (!ready_.empty()) {
        std::shared_ptr<Host> host = std::move(ready_.front());
        ready_.pop_front();
        lk.unlock();
        const bool more = drain(*host);
        lk.lock();
        if (more) push_ready_locked(std::move(host), 1);
        continue;
      }
      if (stopping_) return;
      // While another loop fires timers, a timed wait on a due deadline
      // would spin: wait untimed, the firing loop re-checks when done.
      if (!dispatching_ && !timed_waiter_ && !timers_.empty()) {
        timed_waiter_ = true;
        const auto when = timers_.front().when;
        timer_cv_.wait_until(lk, when);
        timed_waiter_ = false;
      } else {
        ++idle_;
        work_cv_.wait(lk);
        --idle_;
        if (wakers_ > 0) --wakers_;
      }
    }
  }

  /// Pop every due timer in deadline order; fire them outside the lock.
  void fire_due(std::unique_lock<std::mutex>& lk) {
    dispatching_ = true;
    const auto now_tp = std::chrono::steady_clock::now();
    while (!timers_.empty() && timers_.front().when <= now_tp) {
      std::pop_heap(timers_.begin(), timers_.end(), std::greater<>{});
      Timer t = std::move(timers_.back());
      timers_.pop_back();
      if (t.id != 0) {
        live_timers_.erase(t.id);
        if (cancelled_.erase(t.id) > 0) continue;
      }
      due_.push_back(std::move(t));
    }
    lk.unlock();
    for (Timer& t : due_) {
      if (t.fn) {
        post(t.to, std::move(t.fn));
      } else if (t.bytes) {
        enqueue_frame(t.to, Frame{t.from, std::move(t.bytes)});
      } else {
        flush_pair(t.from, t.to);
      }
    }
    due_.clear();
    lk.lock();
    dispatching_ = false;
  }

  /// Dispatch a bounded burst (one hot node cannot pin a loop while others
  /// starve).  Returns true if the node still has work and stays queued.
  bool drain(Host& host) {
    for (int burst = 0; burst < kDrainBurst; ++burst) {
      std::function<void()> job;
      Frame frame;
      Handler handler;
      {
        std::lock_guard<std::mutex> lk(host.mu);
        if (!host.jobs.empty()) {
          job = std::move(host.jobs.front());
          host.jobs.pop_front();
          // A job may run long (a chaos-lane stall): keep the other nodes'
          // timers on time meanwhile.
          std::lock_guard<std::mutex> sched_lk(sched_mu_);
          enlist_watcher_locked();
        } else if (!host.inbox.empty()) {
          frame = std::move(host.inbox.front());
          host.inbox.pop_front();
          handler = host.handler;  // copy: unregister may clear it
        } else {
          host.draining = false;
          return false;
        }
      }
      try {
        if (job) {
          job();
        } else if (handler) {
          dispatch_bundle(host.id, frame, handler);
        }
      } catch (const std::exception&) {
        // A throwing job must not take down the loop thread; surface
        // through the counter (tests assert it stays zero).
        handler_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return true;
  }

  /// Authenticate one inbound bundle FIRST, then parse and dispatch its
  /// frames in order.  Verifying the tag before touching the bundle
  /// structure means any tampering — header, frame bytes, or tag — dies as
  /// one auth failure; the parser below only ever sees bytes an honest
  /// sender authenticated, so a decode error there flags a sender-side bug
  /// (or an injected frame too short to even carry a tag), never line noise.
  void dispatch_bundle(NodeId self, const Frame& frame,
                       const Handler& handler) {
    const auto malformed = [this]() {
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
    };
    const Bytes& b = *frame.bytes;
    const std::size_t tag_size = crypto::Digest{}.size();
    // Not even a tag plus a frame-count byte: not a bundle at all.
    if (b.size() < tag_size + 1) return malformed();
    const std::size_t body = b.size() - tag_size;
    crypto::Digest tag{};
    std::copy(b.begin() + static_cast<std::ptrdiff_t>(body), b.end(),
              tag.begin());
    if (!link_key(frame.from, self)
             .verify(std::string_view(reinterpret_cast<const char*>(b.data()),
                                      body),
                     tag)) {
      auth_failures_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::size_t pos = 0;
    std::uint64_t count = 0;
    if (!get_varint(b, pos, count) || pos > body || count > body) {
      return malformed();
    }
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    spans.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t len = 0;
      if (!get_varint(b, pos, len) || pos > body || len > body - pos) {
        return malformed();
      }
      spans.emplace_back(pos, static_cast<std::size_t>(len));
      pos += static_cast<std::size_t>(len);
    }
    if (pos != body) return malformed();
    for (const auto& [off, len] : spans) {
      const auto msg = Codec::decode(b.data() + off, len);
      if (!msg) {
        malformed();
        continue;
      }
      delivered_.fetch_add(1, std::memory_order_relaxed);
      try {
        handler(frame.from, *msg);
      } catch (const std::exception&) {
        // A throwing handler must not poison the rest of the bundle (or
        // the loop thread); surface through the counter.
        handler_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  static constexpr int kDrainBurst = 64;

  Options options_;

  mutable std::mutex rng_mu_;
  Rng rng_;

  const std::chrono::steady_clock::time_point start_;

  mutable std::mutex hosts_mu_;
  std::unordered_map<NodeId, std::shared_ptr<Host>> hosts_;

  mutable std::mutex net_state_mu_;
  std::set<std::pair<NodeId, NodeId>> blocked_;
  std::set<std::pair<NodeId, NodeId>> partition_blocked_;

  std::mutex channel_mu_;
  /// Latest scheduled arrival per directed pair (the FIFO frontier).
  std::map<std::pair<NodeId, NodeId>,
           std::chrono::steady_clock::time_point>
      channel_frontier_;

  /// Per-pair coalescing state (only touched when flush_window > 0):
  /// `queued` holds frames awaiting the armed flush; `last_ship` is the
  /// last bundle departure — a quiet channel (no departure within the
  /// window) ships the next message immediately, Nagle-style.  Sharded by
  /// sender so the hot path never funnels every node through one mutex.
  struct PairState {
    std::vector<std::shared_ptr<const Bytes>> queued;
    bool armed = false;
    std::chrono::steady_clock::time_point last_ship{};
  };
  struct BundleShard {
    std::mutex mu;
    std::map<std::pair<NodeId, NodeId>, PairState> pairs;
  };
  static constexpr std::size_t kBundleShards = 64;
  BundleShard& shard_for(NodeId from) {
    return bundle_shards_[static_cast<std::size_t>(from) % kBundleShards];
  }
  std::array<BundleShard, kBundleShards> bundle_shards_;

  std::atomic<bool> stop_requested_{false};  ///< lock-free send fence

  /// Chaos-lane fault injector (nullptr = faults off); owned by the caller.
  std::atomic<FaultInjector*> fault_injector_{nullptr};

  /// The scheduler: timer heap, ready queue and loop bookkeeping.
  mutable std::mutex sched_mu_;
  std::condition_variable work_cv_;   ///< untimed idle loops
  std::condition_variable timer_cv_;  ///< the one deadline watcher
  bool stopping_ = false;
  bool dispatching_ = false;   ///< a loop is firing due timers
  bool timed_waiter_ = false;  ///< a loop waits for the earliest deadline
  int idle_ = 0;               ///< loops in the untimed wait
  int wakers_ = 0;             ///< untimed loops woken, not yet back
  std::deque<std::shared_ptr<Host>> ready_;
  std::vector<Timer> timers_;  ///< min-heap on (when, seq)
  std::vector<Timer> due_;     ///< the firing loop's batch (dispatching_)
  std::uint64_t next_timer_id_ = 1;
  std::uint64_t next_timer_seq_ = 0;
  std::unordered_set<std::uint64_t> live_timers_;
  std::unordered_set<std::uint64_t> cancelled_;

  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> reordered_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> decode_errors_{0};
  std::atomic<std::uint64_t> handler_errors_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> macs_computed_{0};
  std::atomic<std::uint64_t> bundled_frames_{0};
  std::atomic<std::uint64_t> auth_failures_{0};

  std::vector<std::thread> loops_;  ///< last member: started in the body
};

}  // namespace tolerance::net
