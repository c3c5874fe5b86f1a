// Deterministic fault injection for the wall-clock lane.
//
// A FaultInjector sits on AsyncRuntime's sender path (set_fault_injector):
// every authenticated bundle about to be shaped consults it and is either
// delivered untouched, dropped, or delivered with seeded bit flips.  The
// injector models the transport-level half of a chaos run — targeted
// directed-pair blackholes and frame corruption; node-level faults (crash,
// restart, event-loop stalls) are executed by the cluster harness, which
// owns the node objects the transport only routes to.
//
// Corrupted bundles MUST die in the authentication layer: a bit flip
// anywhere in the bundle (header, frame bytes, or tag) makes the HMAC check
// fail, so the receiver counts an auth failure and never hands garbage to a
// codec or a protocol handler.  The chaos CI gate (zero decode/handler
// errors under corruption) leans on exactly this property.
//
// Determinism: all probability draws come from one seeded Rng behind a
// mutex.  Concurrent senders serialize on it, so a multi-threaded run is
// not trace-identical across schedules — what IS reproducible is the
// FaultPlan itself (which pairs drop, which senders corrupt, when), which
// is what makes a chaos failure re-runnable.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "tolerance/net/transport.hpp"
#include "tolerance/util/rng.hpp"

namespace tolerance::net {

/// What a scheduled chaos event does.  Crash/restart/stall act on a node and
/// are executed by the cluster harness; corrupt/drop act on the transport
/// and toggle injector rules for `duration` seconds.
enum class FaultKind {
  kCrash,          ///< deregister the node and destroy its state
  kRestart,        ///< re-create the node (bumped USIG epoch) and rejoin
  kCorruptFrames,  ///< flip bits in bundles sent by `node` (rate, duration)
  kDropPair,       ///< blackhole the directed pair node -> peer (rate, duration)
  kStallLoop,      ///< busy-occupy `node`'s event loop for `duration`
};

/// One scheduled fault.  `at` is seconds from the start of the chaos run.
struct FaultEvent {
  /// Wildcard peer: apply the rule to every directed pair from `node`.
  static constexpr NodeId kAllPeers = ~NodeId{0};

  double at = 0.0;
  FaultKind kind = FaultKind::kCrash;
  NodeId node = 0;
  NodeId peer = kAllPeers;  ///< kDropPair target (kAllPeers = fan-out)
  double duration = 0.0;    ///< rule lifetime (corrupt/drop) or stall length
  double rate = 1.0;        ///< per-bundle probability (corrupt/drop)
};

/// A seeded, time-ordered chaos schedule.  The seed feeds the injector's
/// probability draws; the events are executed by the harness control loop.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultEvent> events;

  /// Events sorted by `at` (stable, so same-instant events keep authoring
  /// order — a crash authored before a restart stays a crash first).
  FaultPlan& normalize();
};

class FaultInjector {
 public:
  using Bytes = std::vector<std::uint8_t>;

  enum class Action { kDeliver, kDrop, kCorrupt };

  explicit FaultInjector(std::uint64_t seed) : rng_(seed) {}

  // --- rule surface (harness control thread) -------------------------------

  /// Blackhole the directed pair from -> to with probability `rate` per
  /// bundle.  `to` may be FaultEvent::kAllPeers.  rate <= 0 clears the rule.
  void set_drop(NodeId from, NodeId to, double rate);
  /// Flip bits in bundles sent by `from` with probability `rate` per bundle.
  /// rate <= 0 clears the rule.
  void set_corrupt(NodeId from, double rate);

  // --- sender path (AsyncRuntime, any loop thread) -------------------------

  /// Verdict for one outbound bundle.  Drop rules win over corruption (a
  /// blackholed bundle never reaches the corruptor, as on a real path).
  Action on_bundle(NodeId from, NodeId to);

  /// Flip 1-4 seeded bits in `bytes` (no-op on an empty buffer).
  void corrupt(Bytes& bytes);

  // --- accounting ----------------------------------------------------------

  std::uint64_t injected_drops() const;
  std::uint64_t injected_corruptions() const;
  std::size_t active_rules() const;

 private:
  mutable std::mutex mu_;
  Rng rng_;
  /// Directed-pair drop rates; kAllPeers entries match any destination.
  std::map<std::pair<NodeId, NodeId>, double> drop_rates_;
  std::map<NodeId, double> corrupt_rates_;
  std::uint64_t drops_ = 0;
  std::uint64_t corruptions_ = 0;
};

}  // namespace tolerance::net
