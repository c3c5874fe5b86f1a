// A MinBFT replica (Veronese et al. [43, §4.2], as used by TOLERANCE).
//
// MinBFT is PBFT restructured around a trusted monotonic counter (USIG):
// two communication steps (PREPARE, COMMIT), f = (N-1)/2 resilience under
// the hybrid failure model, FIFO ordering per leader enforced by counter
// contiguity, equivocation impossible because a counter value can be bound
// to only one message.  This implementation adds the reconfiguration
// operations (join/evict) of §VII-C, state transfer for new replicas, and
// the throughput levers of the Fig. 10 scale-up:
//
//  * Request batching — the leader accumulates pending client requests and
//    binds a whole ordered batch to ONE USIG counter value; followers verify
//    one UI per batch, COMMITs endorse the batch digest, execution and
//    REPLYs fan out per request.  A batch seals as soon as the pipeline
//    window has room (so an idle system runs at singleton batches with
//    unbatched latency), when it reaches `batch_size`, or when the batch
//    timer fires; batches only *accumulate* under backpressure, which is
//    exactly when amortizing the signature pays.
//  * Pipelined signing/verification — up to `pipeline_depth` sealed batches
//    may be in flight (assigned a counter, not yet executed) at once, and a
//    UsigVerifyCache memoizes verification verdicts per (sender, epoch,
//    counter) so retransmits and view-change proof re-checks are free.
//
// Byzantine behaviour for experiments is injected via ByzantineMode: the
// protocol logic below is the honest logic; a compromised replica either
// goes silent, or emits garbage (corrupted COMMIT digests, garbage REPLYs,
// and — as leader — a corrupted operation smuggled into a sealed batch).
// Its USIG still refuses to equivocate, which is exactly the hybrid-failure
// assumption; a garbage batch is caught by the per-request client-signature
// check and answered with a view change.
#pragma once

#include <atomic>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "tolerance/consensus/admission.hpp"
#include "tolerance/consensus/minbft_messages.hpp"
#include "tolerance/util/rng.hpp"

namespace tolerance::consensus {

/// Post-compromise behaviours from §VIII-A: (a) participate correctly,
/// (b) stop participating, (c) participate with random messages.
enum class ByzantineMode { Honest, Silent, Random };

struct MinBftConfig {
  int f = 1;                       ///< tolerated faults; N = 2f + 1 minimum
  SeqNum checkpoint_period = 100;  ///< cp in Table 8
  SeqNum log_watermark = 1000;     ///< L in Table 8
  double view_change_timeout = 280.0;  ///< Tvc in Table 8 (seconds)
  double request_retry_timeout = 30.0; ///< Texec in Table 8
  /// Commit votes are fire-and-forget: if the one commit a peer still
  /// needed is lost, that peer wedges on a fully-prepared entry forever —
  /// and with n = 2f+1 its stall freezes the checkpoint quorum for the
  /// whole cluster.  After this many seconds sitting on an unquorate
  /// next-to-execute entry we re-broadcast our own vote; peers answer a
  /// duplicate vote by echoing theirs back (see handle_commit), so the
  /// hole closes from either side.  Zero disables the repair clock: the
  /// wall-clock runtime lane force-enables it (lost frames are a fact of
  /// life there), while the sim emulation lane leaves failure dynamics to
  /// the view-change machinery its scenario calibrations assume.
  double commit_repair_timeout = 0.0;
  /// When true, a replica constructed with usig_epoch > 0 (a post-crash
  /// restart: the trusted counter survived, the log did not) starts
  /// PASSIVE — it only processes checkpoints and state responses until its
  /// first state install, so it cannot re-vote sequences it voted before
  /// the crash or contribute an amnesiac prepared-set to a view change
  /// (either forks the committed log).  The wall-clock runtime lane turns
  /// this on; the sim emulation lane keeps the legacy immediate-rejoin so
  /// controller-driven recovery waves cannot starve the checkpoint quorum.
  bool passive_recovery = false;
  double crypto_cost_sign = crypto::KeyRegistry::kSignCost;
  double crypto_cost_verify = crypto::KeyRegistry::kVerifyCost;
  /// CPU cost per outgoing message (marshalling + per-link MAC); dominates
  /// the O(N^2) message complexity that bends the Fig. 10 throughput curve.
  double cpu_cost_per_send = 0.0;
  /// Per-REPLY authentication cost.  Replies are per-client point-to-point,
  /// so real deployments authenticate them with session MACs instead of
  /// signatures (the PBFT-lineage optimization); < 0 falls back to
  /// crypto_cost_sign, the pre-batching behaviour.
  double crypto_cost_reply = -1.0;
  /// Max requests bound to one USIG counter value (1 = unbatched protocol).
  int batch_size = 16;
  /// Max sealed-but-unexecuted batches the leader keeps in flight.  An
  /// arriving request seals immediately while the window has room;
  /// kUnboundedPipeline reproduces the pre-batching message pattern
  /// (every request its own PREPARE, watermark-bound pipelining).
  int pipeline_depth = 4;
  /// Seal a partial batch after this many (simulated) seconds even if the
  /// pipeline window is full (at most one over-the-window batch per timeout
  /// period) — bounds pending-request latency when execution stalls.
  double batch_timeout = 0.05;
  /// Entries kept by the per-replica USIG verification cache.
  std::size_t usig_cache_capacity = 4096;
  /// Speculative execution (the Zyzzyva-style fast path): execute a batch
  /// tentatively as soon as its PREPARE verifies — before the commit quorum
  /// — and reply with the speculative flag set.  Clients act on a
  /// speculative result only when ALL n replicas return matching tentative
  /// replies; a view change rolls uncommitted speculative state back to the
  /// committed prefix and the re-proposed entries re-execute.  Entries
  /// carrying join:/evict: operations never execute speculatively
  /// (membership changes are not rolled back).
  bool speculative = false;
  /// Client-side safety valve for the speculative fast path: once a request
  /// has gathered at least one speculative reply without completing, wait
  /// this long, then retransmit once.  Replicas answer retransmissions from
  /// their reply cache (FINAL once the entry committed), so a client whose
  /// speculative quorum was spoiled by one lost reply recovers in a round
  /// trip instead of a full request_retry_timeout.  0 disables the valve.
  double spec_fallback_timeout = 0.0;
  /// Grace period before fetching a PREPARE that a commit quorum refers to
  /// but never arrived here.  Commit-before-prepare is usually plain
  /// reordering (the prepare is buffered in a flush window or a slower
  /// bundle) and resolves by itself; only when the prepare is still missing
  /// after this long was it dropped, and a relay is worth the traffic.
  double prepare_fetch_grace = 0.02;
  /// Sim-lane model of the wall-clock lane's outbound authenticator
  /// batching: when > 0, cpu_cost_per_send is charged per destination at
  /// most once per this many (simulated) seconds — one MAC covers every
  /// message flushed to that destination inside the window.  0 keeps the
  /// one-MAC-per-message accounting.  Message *semantics* are unchanged
  /// either way, which is what the batched≡unbatched log gate checks.
  double mac_flush_window = 0.0;
  /// Client-facing admission control (EWMA pressure + NORMAL/SOFT/HARD mode
  /// machine + per-mode token budgets).  Disabled by default — enabling it
  /// changes no protocol semantics, only whether a replica may answer a
  /// REQUEST with a typed Overloaded rejection instead of queueing it.
  AdmissionConfig admission;
  /// Per-attempt deadline for state transfer (seconds): if no f+1 digest
  /// quorum installed within this long of sending a StateRequest, re-request
  /// from a rotated peer window.  The deadline grows by
  /// state_transfer_backoff per attempt (with up to +25% seeded jitter, so
  /// simultaneously recovering replicas do not re-request in lockstep).
  /// Generous by default: on a healthy link the first attempt always wins,
  /// which keeps the sim lane's traces on the one-broadcast path.
  double state_transfer_timeout = 15.0;
  double state_transfer_backoff = 2.0;
  /// Attempts before giving up (telemetry records the give-up; the next
  /// checkpoint that shows this replica behind starts a fresh cycle).
  int state_transfer_max_attempts = 6;

  static constexpr int kUnboundedPipeline = std::numeric_limits<int>::max();

  /// The pre-batching protocol: singleton batches, watermark-bound pipeline.
  MinBftConfig unbatched() const {
    MinBftConfig c = *this;
    c.batch_size = 1;
    c.pipeline_depth = kUnboundedPipeline;
    return c;
  }
};

/// The replicated state machine: an append-only operation log with a chained
/// digest (sufficient for the paper's read/write web service, §VII-B).
class ReplicatedService {
 public:
  std::string execute(const std::string& operation);
  const std::vector<std::string>& log() const { return log_; }
  crypto::Digest state_digest() const { return digest_; }
  void install(std::vector<std::string> log, crypto::Digest digest);

  /// The chained digest a log of operations would produce — lets a state
  /// receiver verify that a claimed log really is the one behind a digest
  /// quorum before installing it.
  static crypto::Digest chain_digest(const std::vector<std::string>& log);

 private:
  std::vector<std::string> log_;
  crypto::Digest digest_{};
};

class MinBftReplica {
 public:
  /// `usig_epoch` is the trusted component's lifetime number: 0 for the
  /// first instantiation, incremented by the cluster each time the replica
  /// is re-created with the same id (recovery).  Receivers order counters by
  /// (epoch, counter), so the fresh USIG supersedes the pre-recovery one.
  MinBftReplica(ReplicaId id, std::vector<ReplicaId> membership,
                MinBftConfig config, MinBftTransport& net,
                std::shared_ptr<crypto::KeyRegistry> registry,
                std::uint64_t key_seed, std::uint64_t usig_epoch = 0);

  /// Cancels any pending view-change / batch timer: the timer callbacks
  /// capture `this`, so a replica destroyed mid-run (evicted or recovered by
  /// the system controller) must not leave one armed in the network queue.
  ~MinBftReplica();

  MinBftReplica(const MinBftReplica&) = delete;
  MinBftReplica& operator=(const MinBftReplica&) = delete;

  ReplicaId id() const { return id_; }
  View view() const { return view_; }
  ReplicaId current_leader() const;
  bool is_leader() const { return current_leader() == id_; }
  const std::vector<ReplicaId>& membership() const { return membership_; }
  SeqNum last_executed() const { return last_executed_; }
  const ReplicatedService& service() const { return service_; }
  ByzantineMode mode() const { return mode_; }

  /// Fault injection for experiments (§VIII-A behaviours).
  void set_mode(ByzantineMode mode) { mode_ = mode; }

  /// Handle any protocol message (wired to the network by MinBftCluster).
  void on_message(net::NodeId from, const MinBftMsg& msg);

  /// Ask peers for the current state (recovery / join, Fig. 17 d-e).
  void request_state_transfer();

  /// Number of executed operations (for tests/benches).
  std::size_t executed_count() const { return service_.log().size(); }

  /// This replica's USIG state (for tests: proves a detached replica really
  /// certified fresh counters that were then rejected by members).
  std::uint64_t usig_counter() const { return usig_.last_counter(); }
  std::uint64_t usig_epoch() const { return usig_.epoch(); }

  // Batching / caching telemetry (tests and the Fig. 10 sweep).
  std::uint64_t batches_proposed() const { return batches_proposed_; }
  std::uint64_t requests_proposed() const { return requests_proposed_; }
  std::size_t pending_request_count() const {
    return pending_requests_.size();
  }
  std::uint64_t usig_cache_hits() const { return usig_cache_.hits(); }
  std::uint64_t usig_cache_misses() const { return usig_cache_.misses(); }

  // Admission-control telemetry and fault injection (tests, scenarios).
  const AdmissionController& admission() const { return admission_; }
  /// Replace the admission configuration (and reset the controller state).
  /// Scenario fault injection uses this to make one replica advertise fake
  /// HARD pressure: hard_enter = 0 with a zero token budget rejects every
  /// request with a validly signed Overloaded.
  void set_admission_config(const AdmissionConfig& cfg) {
    config_.admission = cfg;
    admission_ = AdmissionController(cfg);
  }

  // Speculative-execution telemetry (tests and the runtime bench).
  std::uint64_t spec_executions() const { return spec_executions_; }
  std::uint64_t spec_rollbacks() const { return spec_rollbacks_; }
  /// The commit-quorum-backed prefix length of service().log(); anything
  /// beyond it is speculative and may still roll back.
  std::size_t committed_log_size() const { return committed_log_size_; }

  // State-transfer retry telemetry (the chaos lane's recovery gates).
  std::uint64_t state_transfer_attempts() const { return st_attempts_; }
  /// Attempts beyond the first per cycle (re-requests after a deadline).
  std::uint64_t state_transfer_retries() const { return st_retries_; }
  std::uint64_t state_transfer_completions() const { return st_completions_; }
  std::uint64_t state_transfer_giveups() const { return st_giveups_; }
  /// A transfer cycle is running (request sent, no install / give-up yet).
  bool state_transfer_active() const { return st_active_; }
  /// Passive post-restart phase: no votes until the first state install.
  bool recovering() const { return recovering_; }
  // Bookkeeping bounds (tests assert these stay pruned).
  std::size_t state_vote_count() const { return state_votes_.size(); }
  std::size_t pending_state_count() const { return pending_state_.size(); }

  /// Cross-thread progress telemetry for the liveness watchdog: plain
  /// relaxed atomics published from the replica's own event loop after every
  /// message, readable from the chaos control thread while the run is live
  /// (every other accessor on this class is loop-thread-only).
  struct ProgressCounters {
    std::atomic<std::uint64_t> committed_ops{0};
    std::atomic<std::uint64_t> view{0};
    std::atomic<std::uint64_t> st_attempts{0};
    std::atomic<std::uint64_t> st_completions{0};
    std::atomic<std::uint64_t> st_giveups{0};
  };
  const ProgressCounters& progress() const { return progress_; }

 private:
  struct PendingEntry {
    Prepare prepare;
    std::set<ReplicaId> commits;  ///< distinct committers (incl. leader)
    bool executed = false;
    // --- speculative-execution bookkeeping --------------------------------
    /// Tentatively applied to the service before the commit quorum.
    bool spec_executed = false;
    /// Per-request results recorded at speculative execution; at commit the
    /// reply cache flips to FINAL without re-execution (and without a second
    /// reply — replicas reply once, Zyzzyva-style).  Empty string = the
    /// request was a duplicate and was skipped.
    std::vector<std::string> spec_results;
    /// (client, request_id) keys THIS entry inserted into
    /// executed_requests_ — exactly what a rollback must erase.
    std::vector<std::pair<ClientId, std::uint64_t>> spec_applied;
    /// Service state right after this entry applied; becomes the committed
    /// snapshot when the entry commits (checkpoints and rollbacks use it).
    std::size_t post_log_size = 0;
    crypto::Digest post_digest{};
    /// Last time we echoed our commit vote in response to a duplicate
    /// (repair nudge).  Echoes are capped at one per repair window per
    /// entry: two replicas each missing a THIRD party's vote would
    /// otherwise treat each other's echoes as fresh nudges and ping-pong
    /// re-signed commits at network RTT rate forever.
    double last_echo = -1e300;
  };

  void handle_request(const Request& req);
  void handle_prepare(const Prepare& p, bool relayed = false);
  void handle_commit(const Commit& c);
  void handle_fetch_prepare(const FetchPrepare& m);
  void handle_checkpoint(const Checkpoint& c);
  void handle_req_view_change(const ReqViewChange& r);
  void handle_view_change(const ViewChange& vc);
  void handle_new_view(const NewView& nv);
  /// Deterministic reassembly of the undecided log suffix from a view-change
  /// proof set (UIs left unset).  Run by the new leader to build its
  /// NEW-VIEW and by every follower to validate one, so a Byzantine leader
  /// cannot deviate from it — see the definition for the selection rules.
  std::vector<Prepare> assemble_reproposals(
      const std::vector<ViewChange>& proofs, View new_view);
  /// The proof's stable_seq claim if its checkpoint certificate carries f+1
  /// distinct members' valid USIG-certified CHECKPOINTs for it, else 0.
  SeqNum certified_stable(const ViewChange& proof);
  void handle_state_request(net::NodeId from, const StateRequest& r);
  void handle_state_response(const StateResponse& r);

  // --- state-transfer retry machine ---------------------------------------
  /// Send one StateRequest: attempt 1 broadcasts (the fast, common path);
  /// retries target a rotating window of f+1 peers — enough that at least
  /// one is honest, without re-triggering the full response fan-in.
  void send_state_request();
  void arm_state_transfer_timer();
  void disarm_state_transfer_timer();
  /// Deadline expired with no install: back off and re-request, or give up.
  void on_state_transfer_deadline();
  /// Install the stashed certificate-vouched anchor (if any survives the
  /// re-checks) and chase the responder's head.  Returns true if a state
  /// was installed — the current transfer cycle is finished then.
  bool try_install_anchor();
  /// End the cycle (installed or gave up): cancel the deadline timer and
  /// prune ALL transfer bookkeeping — stale digests from slow or Byzantine
  /// responders must not outlive the cycle that solicited them.
  void finish_state_transfer(bool installed);
  /// Drop one candidate digest (failed chain verification) without ending
  /// the cycle.
  void discard_state_candidate(const crypto::Digest& digest);
  /// True when the response's checkpoint-anchored sidecar is usable here:
  /// it advances us, its prefix is spliceable from our own committed log,
  /// and its certificate carries f+1 distinct members' valid USIG-certified
  /// CHECKPOINTs for (anchor_seq, anchor_digest).
  bool anchor_certified(const StateResponse& r);
  /// Splice our committed prefix under `count` shipped operations and, if
  /// the chained digest of the whole matches, install it and end the cycle.
  /// `cert` becomes the new stable certificate (empty for a head install,
  /// whose stable point is vouched by the digest quorum instead).
  bool install_transferred_state(std::uint64_t prefix_ops,
                                 const std::vector<std::string>& shipped,
                                 std::size_t count,
                                 const crypto::Digest& digest, SeqNum seq,
                                 std::vector<Checkpoint> cert);
  /// Publish committed progress / view to the watchdog-visible atomics.
  void publish_progress();

  void enqueue_request(const Request& req);
  /// Seal pending requests into batches while the pipeline window has room.
  void try_seal_batches();
  bool seal_one_batch();
  SeqNum in_flight_batches() const;
  void arm_batch_timer();
  void disarm_batch_timer();
  void drop_pending_requests();
  /// Recompute the pipeline bookkeeping after a view installation.
  void resync_assignment_watermark();
  /// The current leader is provably faulty (conflicting batch at one seq,
  /// or a batch request with a bad client signature): demand a view change.
  void denounce_leader();
  ReqViewChange make_req_view_change(View to_view);
  /// This replica's USIG-certified view-change proof: stable checkpoint plus
  /// the prepared log suffix.  Used both when broadcasting a view change and
  /// when the new leader appends its own proof at assembly time.
  ViewChange make_view_change(View to_view);
  void try_execute();
  void execute_entry(PendingEntry& entry);
  /// Advance the speculative frontier: tentatively execute contiguous logged
  /// entries above it that have no commit quorum yet, sending speculative
  /// replies.  Stops at reconfiguration batches (never speculated).
  void try_speculate();
  /// Apply one entry tentatively: service execution + speculative replies,
  /// with enough bookkeeping recorded to undo it (spec_applied) or finalize
  /// it without re-execution (spec_results).
  void speculate_entry(PendingEntry& entry);
  /// Final replies for an entry that already executed speculatively: replay
  /// the recorded results, touch nothing in the service.
  void confirm_entry(PendingEntry& entry);
  /// Undo every speculatively-executed, uncommitted entry: erase its
  /// executed_requests_ keys and truncate the service back to the committed
  /// prefix.  Called before a view installs or a state transfer lands —
  /// the re-proposed entries then re-execute from the committed state.
  void rollback_speculation();
  void send_reply(const Request& req, std::string result, bool speculative);
  /// The admission gate's verdict on one arriving request.
  enum class AdmissionOutcome {
    kAdmit,      ///< proceed to verification / enqueue
    kReject,     ///< over budget — an Overloaded rejection has been sent
    kDuplicate,  ///< already backlogged or in flight here; dropped silently
  };
  /// The admission gate: feed the pressure loop one arrival and decide.
  /// Retransmissions of requests this replica already carries are signal,
  /// not work: they raise err* but neither burn a token (that would
  /// double-queue) nor draw a rejection (the client would back off a
  /// request that is already on its way).  Always kAdmit when admission is
  /// disabled.
  AdmissionOutcome admit_request(const Request& req);
  void send_overloaded(const Request& req);
  /// queue* input: leader backlog + unexecuted in-flight batch requests +
  /// the transport's undelivered inbound queue for this node.
  double queue_signal() const;
  /// True if any request in the batch is a join:/evict: operation.
  static bool has_reconfiguration(const Prepare& p);
  void apply_reconfiguration(const std::string& op);
  void emit_checkpoint();
  void garbage_collect(SeqNum stable);
  void start_view_change(View to_view);
  void arm_view_change_timer();
  void disarm_view_change_timer();
  void send_commit(const Prepare& p);
  /// Re-sign and re-send our commit vote for a logged entry — to one peer
  /// (a repair echo) or to everyone (a repair nudge).  No-op unless we
  /// voted for the entry in the current view.
  void resend_commit(SeqNum seq, std::optional<ReplicaId> to);
  /// Arm the commit-repair timer when the next-to-execute entry holds our
  /// vote but no quorum (see MinBftConfig::commit_repair_timeout).
  void maybe_arm_commit_repair();
  void on_commit_repair();
  void broadcast(const MinBftMsg& msg);
  double reply_cost() const {
    return config_.crypto_cost_reply < 0.0 ? config_.crypto_cost_sign
                                           : config_.crypto_cost_reply;
  }

  bool verify_request(const Request& req);
  /// USIG verification through the per-replica verdict cache; only a miss
  /// pays the verify CPU cost.
  bool verify_ui(const crypto::Digest& digest,
                 const crypto::UniqueIdentifier& ui);
  bool is_member(ReplicaId replica) const;
  /// Accept `ui` only if it is fresh — strictly above the last (epoch,
  /// counter) pair seen from its issuer — and record it.  Evicted or
  /// replayed identifiers never pass (callers additionally gate on
  /// is_member).
  bool accept_counter(const crypto::UniqueIdentifier& ui);

  ReplicaId id_;
  std::vector<ReplicaId> membership_;
  MinBftConfig config_;
  MinBftTransport* net_;
  std::shared_ptr<crypto::KeyRegistry> registry_;
  crypto::Signer signer_;
  crypto::Usig usig_;
  ReplicatedService service_;
  ByzantineMode mode_ = ByzantineMode::Honest;
  AdmissionController admission_;
  /// Arrival time of the head of the current leader backlog (lat* input):
  /// set when pending_requests_ goes non-empty, cleared when it drains.
  double backlog_since_ = 0.0;
  /// Keys this valve rejected and has not admitted since.  A retransmission
  /// of a rejected request is not carried anywhere in pending/log state, so
  /// without this memory it would look like a fresh arrival and the err*
  /// pressure term would read near zero in the middle of a retry storm —
  /// the valve would flap back to NORMAL and mint admissions far beyond its
  /// token budget.  Bounded like verified_requests_: cleared on overflow.
  std::set<std::pair<ClientId, std::uint64_t>> rejected_keys_;

  View view_ = 0;
  SeqNum last_executed_ = 0;      ///< highest contiguously executed seq
  SeqNum stable_checkpoint_ = 0;
  /// Highest contiguously (speculatively or finally) executed seq; always
  /// >= last_executed_.  Entries in (last_executed_, last_speculated_] hold
  /// tentative state that a view change rolls back.
  SeqNum last_speculated_ = 0;
  /// The service prefix backed by a commit quorum: what checkpoints digest,
  /// state transfers ship, and rollbacks truncate to.  Equals the full
  /// service state whenever no speculative entry is outstanding.
  std::size_t committed_log_size_ = 0;
  crypto::Digest committed_digest_{};
  std::uint64_t spec_executions_ = 0;
  std::uint64_t spec_rollbacks_ = 0;
  /// Sim-lane MAC batching model: last simulated time cpu_cost_per_send was
  /// charged per destination (see MinBftConfig::mac_flush_window).
  std::map<ReplicaId, double> last_mac_charge_;
  std::map<SeqNum, PendingEntry> log_;
  /// UI-verified COMMIT votes that arrived before their PREPARE (reordering,
  /// or the prepare was dropped): (seq -> voter -> endorsed batch digest).
  /// Folded into the log entry when the prepare shows up; when a full f+1
  /// quorum stashes up with still no prepare, the prepare was lost and we
  /// fetch a relay of it from a committer (see handle_commit).
  std::map<SeqNum, std::map<ReplicaId, crypto::Digest>> early_commits_;
  std::set<SeqNum> fetched_;  ///< seqs we already sent a FetchPrepare for
  /// Last accepted (usig epoch, counter) per replica — FIFO ordering and
  /// replay protection across recoveries.
  std::map<ReplicaId, std::pair<std::uint64_t, std::uint64_t>> last_counter_;
  std::set<std::pair<ClientId, std::uint64_t>> executed_requests_;
  /// CHECKPOINT messages per (seq, state digest, voter): the f+1 quorum that
  /// stabilizes a checkpoint doubles as the certificate a view change must
  /// carry to make its stable_seq claim believable.
  std::map<SeqNum, std::map<crypto::Digest, std::map<ReplicaId, Checkpoint>,
                            std::less<crypto::Digest>>>
      checkpoint_votes_;
  /// The certificate behind stable_checkpoint_ (empty while it is 0 or
  /// after a state transfer, whose stable point is vouched by the digest
  /// quorum instead).
  std::vector<Checkpoint> stable_cert_;
  std::map<View, std::set<ReplicaId>> view_change_requests_;
  std::map<View, std::vector<ViewChange>> view_changes_;
  bool in_view_change_ = false;
  std::uint64_t vc_timer_ = 0;
  bool vc_timer_armed_ = false;
  std::uint64_t repair_timer_ = 0;  ///< commit-repair nudge (see config)
  bool repair_timer_armed_ = false;
  /// last_executed_ snapshot taken when the repair timer was armed.  The
  /// nudge only fires if a FULL window passed with zero execution progress
  /// — a true wedge.  Merely-slow progress (CPU overload, deep queues)
  /// re-arms quietly: resending commits into a saturated cluster adds
  /// sign/verify load exactly when there is none to spare, and that
  /// feedback loop can turn a survivable overload into a collapse.
  SeqNum repair_snapshot_ = 0;
  /// Last reply per client, kept so a retransmitted request can be answered
  /// from cache instead of silently dropped (the liveness path for lost
  /// replies — essential under speculation, where a spec-executed entry's
  /// commit sends no second reply).  `committed` flips at the commit quorum;
  /// a cached resend is re-signed with the current status.
  struct CachedReply {
    std::uint64_t request_id = 0;
    /// The reply exactly as last signed and sent (flag + signature).  A
    /// retransmission resends these bytes verbatim — re-signing only when
    /// `committed` has flipped since, so serving a lagging client costs a
    /// signature at most once per status change, not once per probe.
    Reply reply;
    bool committed = false;  ///< current status (may be newer than the flag)
  };
  std::map<ClientId, CachedReply> reply_cache_;
  /// Digest votes / stored responses for the LIVE transfer cycle only.  One
  /// vote per member (a replica's newest response supersedes its older one),
  /// so both maps are bounded by the membership size; finish_state_transfer
  /// clears them outright.
  std::map<crypto::Digest, std::set<ReplicaId>> state_votes_;
  std::map<crypto::Digest, StateResponse> pending_state_;
  /// Best (highest-anchor) certificate-vouched response seen this cycle.
  /// Head-digest matching stays the primary install path; if the deadline
  /// fires first, this candidate recovers us to the checkpoint boundary —
  /// the path that converges when continuous commits keep the live heads
  /// of any two responders from ever matching exactly.
  std::optional<StateResponse> st_anchor_;
  /// (ops, digest) of our committed log at each checkpoint boundary we
  /// emitted, so handle_state_request can vouch for the stable checkpoint
  /// with an exact spliceable slice.  Pruned below stable on GC and bounded
  /// by the watermark; cleared (re-seeded) on install.
  std::map<SeqNum, std::pair<std::uint64_t, crypto::Digest>>
      checkpoint_anchors_;

  // --- state-transfer retry machine ----------------------------------------
  /// True from a recovery restart (usig_epoch > 0) until the first state
  /// install: a recovering replica is passive — it casts no votes, proposes
  /// nothing and joins no view change, because the votes it cast before
  /// crashing are forgotten and contradicting them could fork the committed
  /// log.  See the recovering_ gate at the top of on_message.
  bool recovering_ = false;
  /// View-change quarantine: installing transferred state clears log_, so
  /// the prepared entries this replica voted for above the install point
  /// are forgotten.  A view-change proof with that amnesiac (empty)
  /// prepared set can displace entries a commit quorum including our
  /// pre-wipe votes decided, forking the committed log.  Any vote we could
  /// have cast was bounded by stable + log_watermark, so we withhold
  /// view-change participation until the stable checkpoint passes
  /// install_seq + log_watermark — from then on every forgotten seq is
  /// covered by a checkpoint certificate, not prepared sets.
  SeqNum vc_quarantine_until_ = 0;
  bool vc_quarantined() const {
    return stable_checkpoint_ < vc_quarantine_until_;
  }
  bool st_active_ = false;
  int st_attempt_ = 0;           ///< attempts in the current cycle
  std::size_t st_rotation_ = 0;  ///< retry peer-window cursor
  std::uint64_t st_timer_ = 0;
  bool st_timer_armed_ = false;
  std::uint64_t st_attempts_ = 0;  // telemetry, lifetime totals
  std::uint64_t st_retries_ = 0;
  std::uint64_t st_completions_ = 0;
  std::uint64_t st_giveups_ = 0;
  Rng st_rng_;  ///< deadline jitter only — never the transport's stream
  ProgressCounters progress_;

  // --- batching / pipelining state (leader role) ---------------------------
  std::deque<Request> pending_requests_;  ///< verified, not yet sealed
  std::set<std::pair<ClientId, std::uint64_t>> pending_keys_;
  SeqNum highest_assigned_ = 0;  ///< highest seq this replica proposed
  std::uint64_t batch_timer_ = 0;
  bool batch_timer_armed_ = false;
  std::uint64_t batches_proposed_ = 0;
  std::uint64_t requests_proposed_ = 0;

  // --- verification caches -------------------------------------------------
  crypto::UsigVerifyCache usig_cache_;
  /// Digests of requests whose client signature already verified — a batch
  /// whose requests all arrived via REQUEST broadcasts re-verifies nothing.
  std::set<crypto::Digest, std::less<crypto::Digest>> verified_requests_;
};

}  // namespace tolerance::consensus
