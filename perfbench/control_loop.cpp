// The control-loop workload: the paper's two-level feedback loop on the
// deterministic simulated lane.  kWorkers threads run passes side by side
// until the run's time is up.  In a pass, a worker builds one
// ScenarioRunner per scenario with make_scenario_runner (pooled detector
// fit plus the CMDP replication LP) and then runs a fixed list of short
// episodes through ScenarioRunner::run, each timed on its own, the way
// ScenarioRunner::run_many shards episodes over threads.  Episode seeds are
// constants, so every decision, count and availability figure repeats
// exactly in every worker, pass and run; the benchmark checks that they do.
//
// Traced passes also time the two set-up solvers as standalone calls with
// make_scenario_runner's inputs (fit_pooled_detector, SystemCmdp::parametric
// plus solve_replication_lp) and replay each episode's local and global
// decision calls (Testbed, NodeController, SystemController::step) without
// the consensus cluster.  The replay follows the episode's own trajectory:
// it applies the evictions and joins the episode's decision trace records,
// and checks, cycle by cycle, that its recoveries, decision state and node
// counts match the trace.  The episode time the replayed calls leave
// unexplained is the simulated MinBFT cluster's share.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "tolerance/core/node_controller.hpp"
#include "tolerance/core/system_controller.hpp"
#include "tolerance/crypto/sha256.hpp"
#include "tolerance/emulation/estimation.hpp"
#include "tolerance/emulation/scenario_runner.hpp"
#include "tolerance/emulation/scenarios.hpp"
#include "tolerance/emulation/testbed.hpp"
#include "tolerance/pomdp/system_model.hpp"
#include "tolerance/solvers/cmdp_lp.hpp"
#include "tolerance/solvers/threshold_policy.hpp"
#include "tolerance/util/rng.hpp"

namespace perfbench {
namespace {

namespace emulation = tolerance::emulation;
namespace core = tolerance::core;
namespace crypto = tolerance::crypto;
namespace pomdp = tolerance::pomdp;
namespace solvers = tolerance::solvers;

/// The training seed shared by every pass (make_scenario_runner's seed).
constexpr std::uint64_t kTrainSeed = 2024;
/// make_scenario_runner's default detector sample count.
constexpr int kDetectorSamples = 60;
/// Set-up takes a few milliseconds, so each pass times it this many times.
constexpr int kSetupRepeats = 3;
/// Every episode runs the first kHorizon cycles of its catalog scenario, so
/// a pass lasts under two seconds and a run measures many of them.
constexpr int kHorizon = 30;
/// Threads that run episodes side by side, the calling thread included:
/// one fewer than the machine's 4 cores, so the rest of the system (the
/// benchmark's parent process among it) never takes a core from a worker
/// and stretches an episode's wall time.
constexpr std::size_t kWorkers = 3;

struct Episode {
  const char* scenario;
  std::uint64_t seed;
};

/// Over their first 30 cycles: aggressive-attacker:24 brings 14 level-1
/// recoveries (USIG epoch bumps and state transfer) and a random-message
/// compromise at cycle 25 that costs two view changes; crash-wave:29 brings
/// the scripted crashes, 3 evictions and a join; crash-wave:11 brings 2
/// evictions, a join and 9 quorum stalls of consensus-ordered membership
/// operations.
constexpr Episode kEpisodes[] = {
    {"aggressive-attacker", 24},
    {"crash-wave", 29},
    {"crash-wave", 11},
};
constexpr const char* kScenarios[] = {"aggressive-attacker", "crash-wave"};

/// The catalog scenario cut to its first kHorizon cycles.
emulation::Scenario short_scenario(const char* name) {
  emulation::Scenario sc = emulation::find_scenario(name);
  sc.horizon = kHorizon;
  std::erase_if(sc.events, [](const emulation::ScenarioEvent& e) {
    return e.step > kHorizon;
  });
  return sc;
}

/// The trained inputs of one scenario, from standalone calls of the two
/// solvers make_scenario_runner runs, with the same inputs.
struct Training {
  emulation::FittedDetector detector;
  std::optional<solvers::CmdpSolution> strategy;
  double detector_fit_s = 0.0;
  double cmdp_lp_s = 0.0;
};

Training time_solvers(const emulation::Scenario& scenario) {
  tolerance::Rng rng(kTrainSeed);
  auto t0 = Clock::now();
  emulation::FittedDetector detector = emulation::fit_pooled_detector(
      kDetectorSamples, 11,
      scenario.testbed.background_arrival_rate *
          scenario.testbed.background_mean_session,
      rng);
  const double fit_s = seconds_since(t0);
  const auto& p = scenario.node_params;
  const double q_healthy = (1.0 - p.p_attack) * (1.0 - p.p_crash_healthy);
  const double q_recover = p.p_update + scenario.recovery_threshold * 0.2;
  t0 = Clock::now();
  auto solution = solvers::solve_replication_lp(pomdp::SystemCmdp::parametric(
      scenario.max_nodes, scenario.f, scenario.epsilon_a, q_healthy,
      std::min(q_recover, 0.95)));
  const double lp_s = seconds_since(t0);
  std::optional<solvers::CmdpSolution> strategy;
  if (solution.status == tolerance::lp::LpStatus::Optimal) {
    strategy = std::move(solution);
  }
  return {std::move(detector), std::move(strategy), fit_s, lp_s};
}

/// The value of `key=` in a decision-trace line ("t=3 s=4 N=5 ... rec=[2]").
std::string trace_field(const std::string& line, const std::string& key) {
  const std::string tag = " " + key + "=";
  const std::size_t at = (" " + line).find(tag);
  if (at == std::string::npos) return {};
  const std::size_t from = at + tag.size() - 1;
  return line.substr(from, line.find(' ', from) - from);
}

/// The node ids of a trace list field ("[1,4]").
std::vector<int> trace_ids(const std::string& field) {
  std::vector<int> ids;
  std::istringstream in(field.size() > 2 ? field.substr(1, field.size() - 2)
                                         : std::string());
  std::string id;
  while (std::getline(in, id, ',')) ids.push_back(std::stoi(id));
  return ids;
}

/// Seconds spent in each decision layer while replaying one episode.
struct ReplayTimes {
  double testbed_s = 0.0;
  double node_s = 0.0;
  double system_s = 0.0;
};

/// The local and global decision calls of ScenarioRunner::run for one
/// episode, without the consensus cluster.  Where the episode's outcome
/// depended on consensus (which evictions and joins were ordered, and
/// which stalled), the replay applies what the episode's trace records.
/// Each cycle it checks its recoveries, decision state, node count and
/// healthy count against the trace; on the first mismatch it returns the
/// cycle in `diverged_at`.  Only calls into the layers are timed.
ReplayTimes replay(const emulation::Scenario& sc, const Training& tr,
                   std::uint64_t seed, const std::vector<std::string>& trace,
                   int& diverged_at) {
  using pomdp::NodeState;
  ReplayTimes times;
  diverged_at = 0;
  emulation::TestbedConfig tb_config = sc.testbed;
  tb_config.initial_nodes = sc.initial_nodes;
  tb_config.max_nodes = sc.max_nodes;
  emulation::Testbed testbed(tb_config, seed);
  const pomdp::NodeModel model(sc.node_params);
  const int dim = solvers::ThresholdPolicy::dimension(solvers::kNoBtr);
  const solvers::ThresholdPolicy policy(
      std::vector<double>(static_cast<std::size_t>(dim),
                          sc.recovery_threshold),
      solvers::kNoBtr);
  std::vector<core::NodeController> controllers;
  for (int i = 0; i < testbed.num_nodes(); ++i) {
    controllers.emplace_back(model, tr.detector, policy);
  }
  core::SystemLimits limits;
  limits.f = sc.f;
  limits.min_nodes = 2 * sc.f + 1;
  core::SystemController system(tr.strategy, sc.max_nodes, seed ^ 0xabcd,
                                limits);
  const auto index_of = [&testbed](int id) {
    for (int i = 0; i < testbed.num_nodes(); ++i) {
      if (testbed.nodes()[static_cast<std::size_t>(i)].id == id) return i;
    }
    return -1;
  };
  for (int t = 1; t <= sc.horizon; ++t) {
    const std::string& line = trace.at(static_cast<std::size_t>(t - 1));
    for (const emulation::ScenarioEvent& e : sc.events) {
      if (e.step != t) continue;
      using Kind = emulation::ScenarioEvent::Kind;
      if (e.kind != Kind::ForceCompromise && e.kind != Kind::ForceCrash) {
        diverged_at = t;  // the replay injects no other kind of event
        return times;
      }
      int remaining = e.count;
      for (int i = 0; i < testbed.num_nodes() && remaining > 0; ++i) {
        const NodeState s = testbed.nodes()[static_cast<std::size_t>(i)].state;
        if (e.kind == Kind::ForceCompromise && s == NodeState::Healthy) {
          testbed.force_compromise(i, e.behavior);
          --remaining;
        } else if (e.kind == Kind::ForceCrash && s != NodeState::Crashed) {
          testbed.force_crash(i);
          --remaining;
        }
      }
    }
    auto t0 = Clock::now();
    testbed.step();
    times.testbed_s += seconds_since(t0);

    t0 = Clock::now();
    const int k_slots = std::max(1, testbed.num_nodes() - 2 * sc.f - 1);
    std::vector<std::pair<double, int>> candidates;
    for (int i = 0; i < testbed.num_nodes(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const emulation::EmulatedNode& node = testbed.nodes()[idx];
      if (node.state == NodeState::Crashed) continue;
      controllers[idx].observe(node.last_metrics.alerts_weighted);
      if (controllers[idx].decide() == pomdp::NodeAction::Recover) {
        candidates.push_back(
            {controllers[idx].btr_due() ? 2.0 : controllers[idx].belief(), i});
      }
    }
    std::sort(candidates.rbegin(), candidates.rend());
    if (static_cast<int>(candidates.size()) > k_slots) {
      candidates.resize(static_cast<std::size_t>(k_slots));
    }
    std::vector<bool> granted(static_cast<std::size_t>(testbed.num_nodes()),
                              false);
    for (const auto& c : candidates) {
      granted[static_cast<std::size_t>(c.second)] = true;
    }
    for (int i = 0; i < testbed.num_nodes(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (testbed.nodes()[idx].state == NodeState::Crashed) continue;
      controllers[idx].commit(granted[idx] ? pomdp::NodeAction::Recover
                                           : pomdp::NodeAction::Wait);
    }
    times.node_s += seconds_since(t0);

    std::vector<int> recovered;
    for (int i = 0; i < testbed.num_nodes(); ++i) {
      if (granted[static_cast<std::size_t>(i)]) {
        recovered.push_back(testbed.nodes()[static_cast<std::size_t>(i)].id);
      }
    }
    t0 = Clock::now();
    for (int i = 0; i < testbed.num_nodes(); ++i) {
      if (granted[static_cast<std::size_t>(i)]) testbed.recover(i);
    }
    times.testbed_s += seconds_since(t0);

    t0 = Clock::now();
    std::vector<double> beliefs;
    std::vector<bool> reported;
    for (int i = 0; i < testbed.num_nodes(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const bool alive = testbed.nodes()[idx].state != NodeState::Crashed;
      reported.push_back(alive);
      beliefs.push_back(alive ? controllers[idx].belief() : 1.0);
    }
    const core::SystemDecision decision = system.step(beliefs, reported);
    times.system_s += seconds_since(t0);

    // The evictions and the join consensus actually ordered this cycle.
    std::vector<int> evict_at;
    for (const int id : trace_ids(trace_field(line, "evt"))) {
      evict_at.push_back(index_of(id));
    }
    std::sort(evict_at.rbegin(), evict_at.rend());
    if (recovered != trace_ids(trace_field(line, "rec")) ||
        std::to_string(decision.state) != trace_field(line, "s") ||
        (!evict_at.empty() && evict_at.back() < 0)) {
      diverged_at = t;
      return times;
    }
    const bool add = trace_field(line, "add") == "1";
    t0 = Clock::now();
    for (const int i : evict_at) testbed.evict(i);
    const bool added = add && testbed.add_node().has_value();
    times.testbed_s += seconds_since(t0);
    for (const int i : evict_at) controllers.erase(controllers.begin() + i);
    if (added) controllers.emplace_back(model, tr.detector, policy);
    if (added != add ||
        std::to_string(testbed.num_nodes()) != trace_field(line, "N") ||
        std::to_string(testbed.healthy_count()) != trace_field(line, "H")) {
      diverged_at = t;
      return times;
    }
  }
  return times;
}

/// One timed run of the set-up or of an episode.
struct Sample {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< CPU time of the worker thread (episodes only)
  double end_s = 0.0;  ///< when it ended, from the start of the timed part
  bool traced = false;  ///< taken in a traced pass
};

/// What one worker did.
struct WorkerLog {
  std::vector<Sample> setup;
  std::vector<std::vector<Sample>> episodes;  ///< kEpisodes order
  std::size_t passes = 0;
  std::size_t traced_passes = 0;
  std::uint64_t attempted = 0;
  std::vector<std::string> errors;
  double stopped_s = 0.0;  ///< when the worker ended its last pass
  // Traced passes only.
  double detector_fit_s = 0.0;
  double cmdp_lp_s = 0.0;
  ReplayTimes replayed;
  long replayed_cycles = 0;
};

/// The timings of the untraced or of the traced passes, taken while all
/// kWorkers were busy.
struct Timings {
  std::vector<double> setup_s;
  std::vector<std::vector<double>> wall_s, cpu_s;  ///< per episode

  /// Control cycles per second of the kWorkers workers together, from each
  /// episode's median wall time: kWorkers × the cycles of the episode list
  /// ÷ the time one worker takes through it at those medians.
  double cycles_per_s() const {
    double list_s = 0.0;
    for (const auto& w : wall_s) list_s += median(w);
    return static_cast<double>(kWorkers * kHorizon * std::size(kEpisodes)) /
           list_s;
  }
};

/// What the timed part of a run measured.
struct Measured {
  Timings plain, traced;
  std::size_t passes = 0;
  std::size_t traced_passes = 0;
  std::size_t dropped = 0;  ///< samples that ended after the first stop
  double steal = 0.0;  ///< share of machine time stolen meanwhile
  std::uint64_t attempted = 0;
  std::vector<std::string> errors;
  // Traced passes, over every episode run, dropped ones included.
  std::size_t traced_runs[std::size(kEpisodes)] = {};
  long traced_cycles = 0;
  double traced_episode_s = 0.0;
  double traced_cpu_s = 0.0;
  double detector_fit_s = 0.0;
  double cmdp_lp_s = 0.0;
  ReplayTimes replayed;
  long replayed_cycles = 0;
};

/// Runs passes on kWorkers threads, the calling thread included, until
/// `seconds` have gone by.  A pass builds the runners with
/// make_scenario_runner (kSetupRepeats times, each timed) and then runs the
/// episode list, each episode timed on its own and checked against
/// `reference`.  Workers start the list at different episodes, as
/// ScenarioRunner::run_many shards episodes over threads, and never wait
/// for each other, so all of them stay busy until the first one stops.
/// Samples that ended after that are dropped: every timed sample ran
/// alongside kWorkers - 1 busy workers.  Every second pass is traced: after
/// its episodes it times the two solvers standalone and replays the
/// decision calls of each episode.  Each worker runs at least one untraced
/// and one traced pass.
Measured measure(const std::map<std::string, emulation::Scenario>& scs,
                 const std::vector<emulation::ScenarioResult>& reference,
                 std::size_t rotation, double seconds) {
  constexpr std::size_t kCount = std::size(kEpisodes);
  std::vector<WorkerLog> logs(kWorkers);
  const StealMeter steal;
  const auto t0 = Clock::now();
  const auto work = [&](std::size_t w) {
    WorkerLog& log = logs[w];
    log.episodes.resize(kCount);
    double pass_s = 0.0;
    // Start a pass only if one as long as the last ends in time.
    while (log.passes < 2 || seconds_since(t0) + pass_s <= seconds) {
      const double pass_start = seconds_since(t0);
      const bool traced = log.passes % 2 == 1;
      std::map<std::string, emulation::ScenarioRunner> runners;
      for (int k = 0; k < kSetupRepeats; ++k) {
        runners.clear();
        const auto s0 = Clock::now();
        for (const auto& [name, sc] : scs) {
          runners.emplace(name, emulation::make_scenario_runner(
                                    sc, kTrainSeed, kDetectorSamples));
        }
        log.setup.push_back({seconds_since(s0), 0.0, seconds_since(t0), traced});
      }
      for (std::size_t j = 0; j < kCount; ++j) {
        const std::size_t i = (j + w + rotation) % kCount;
        const Episode& ep = kEpisodes[i];
        const double cpu0 = thread_cpu_seconds();
        const auto e0 = Clock::now();
        const emulation::ScenarioResult r = runners.at(ep.scenario).run(ep.seed);
        const double wall = seconds_since(e0);
        log.episodes[i].push_back(
            {wall, thread_cpu_seconds() - cpu0, seconds_since(t0), traced});
        ++log.attempted;
        if (!emulation::identical(r, reference[i])) {
          log.errors.push_back("control-loop: episode " +
                               std::string(ep.scenario) + ":" +
                               std::to_string(ep.seed) + " diverged in " +
                               (traced ? "traced " : "") + "pass " +
                               std::to_string(log.passes));
        }
      }
      if (traced) {
        std::map<std::string, Training> training;
        for (const auto& [name, sc] : scs) {
          Training tr = time_solvers(sc);
          log.detector_fit_s += tr.detector_fit_s;
          log.cmdp_lp_s += tr.cmdp_lp_s;
          training.emplace(name, std::move(tr));
        }
        for (std::size_t i = 0; i < kCount; ++i) {
          const Episode& ep = kEpisodes[i];
          int diverged_at = 0;
          const ReplayTimes t =
              replay(scs.at(ep.scenario), training.at(ep.scenario), ep.seed,
                     reference[i].trace, diverged_at);
          log.replayed.testbed_s += t.testbed_s;
          log.replayed.node_s += t.node_s;
          log.replayed.system_s += t.system_s;
          log.replayed_cycles += kHorizon;
          if (diverged_at > 0) {
            log.errors.push_back("control-loop: the decision replay of " +
                                 std::string(ep.scenario) + ":" +
                                 std::to_string(ep.seed) + " at cycle " +
                                 std::to_string(diverged_at) +
                                 " does not follow the episode's trace");
          }
        }
        ++log.traced_passes;
      }
      ++log.passes;
      pass_s = seconds_since(t0) - pass_start;
    }
    log.stopped_s = seconds_since(t0);
  };
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 1; w < kWorkers; ++w) workers.emplace_back(work, w);
    work(0);
  }

  Measured m;
  m.steal = steal.share();
  for (Timings* t : {&m.plain, &m.traced}) {
    t->wall_s.resize(kCount);
    t->cpu_s.resize(kCount);
  }
  double first_stop = logs[0].stopped_s;
  for (const WorkerLog& log : logs) {
    first_stop = std::min(first_stop, log.stopped_s);
  }
  for (const WorkerLog& log : logs) {
    m.passes += log.passes;
    m.traced_passes += log.traced_passes;
    m.attempted += log.attempted;
    m.errors.insert(m.errors.end(), log.errors.begin(), log.errors.end());
    for (const Sample& s : log.setup) {
      if (s.end_s <= first_stop) {
        (s.traced ? m.traced : m.plain).setup_s.push_back(s.wall_s);
      }
    }
    for (std::size_t i = 0; i < kCount; ++i) {
      for (const Sample& s : log.episodes[i]) {
        if (s.traced) {
          ++m.traced_runs[i];
          m.traced_cycles += kHorizon;
          m.traced_episode_s += s.wall_s;
          m.traced_cpu_s += s.cpu_s;
        }
        if (s.end_s > first_stop) {
          ++m.dropped;
          continue;
        }
        Timings& t = s.traced ? m.traced : m.plain;
        t.wall_s[i].push_back(s.wall_s);
        t.cpu_s[i].push_back(s.cpu_s);
      }
    }
    m.detector_fit_s += log.detector_fit_s;
    m.cmdp_lp_s += log.cmdp_lp_s;
    m.replayed.testbed_s += log.replayed.testbed_s;
    m.replayed.node_s += log.replayed.node_s;
    m.replayed.system_s += log.replayed.system_s;
    m.replayed_cycles += log.replayed_cycles;
  }
  return m;
}

/// FNV-1a over every episode's decision trace and counts, so runs can be
/// compared for identical decisions from their regime records alone.
std::uint64_t decision_digest(
    const std::vector<emulation::ScenarioResult>& results) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= 0xff;
    h *= 1099511628211ULL;
  };
  for (const auto& r : results) {
    for (const std::string& line : r.trace) mix(line);
    mix(std::to_string(r.recoveries) + "," + std::to_string(r.evictions) +
        "," + std::to_string(r.additions) + "," +
        std::to_string(r.quorum_stalls) + "," + std::to_string(r.final_view));
  }
  return h;
}

}  // namespace

void measure_control_loop(std::uint64_t seed, double seconds, Result& out) {
  out.note("control_workers", kWorkers);
  out.note_str("control_lane", "sim (deterministic SimNetwork)");
  out.note("control_train_seed", kTrainSeed);
  out.note("control_horizon", kHorizon);
  {
    std::string eps;
    for (const Episode& ep : kEpisodes) {
      eps += std::string(eps.empty() ? "" : " ") + ep.scenario + ":" +
             std::to_string(ep.seed);
    }
    out.note_str("control_episodes", eps);
  }
  // The episode set is fixed so that decisions repeat exactly; the seed
  // only rotates the order in which the workers run them.
  const std::size_t rotation =
      static_cast<std::size_t>(seed % std::size(kEpisodes));
  out.note("control_episode_rotation", rotation);
  std::map<std::string, emulation::Scenario> scenarios;
  for (const char* name : kScenarios) {
    scenarios.emplace(name, short_scenario(name));
  }

  // Warm-up, on this thread alone: one pass whose results are the
  // reference every timed episode must repeat exactly, and whose SHA-256
  // counts per episode are exact, since no other thread hashes meanwhile.
  const auto start = Clock::now();
  std::vector<emulation::ScenarioResult> reference;
  std::vector<std::uint64_t> sha_per_episode;
  {
    std::map<std::string, emulation::ScenarioRunner> runners;
    for (const auto& [name, sc] : scenarios) {
      runners.emplace(name, emulation::make_scenario_runner(
                                sc, kTrainSeed, kDetectorSamples));
    }
    for (const Episode& ep : kEpisodes) {
      const std::uint64_t sha0 = crypto::Sha256::invocations();
      reference.push_back(runners.at(ep.scenario).run(ep.seed));
      sha_per_episode.push_back(crypto::Sha256::invocations() - sha0);
    }
  }
  out.note("control_decision_digest", decision_digest(reference));

  const Measured m =
      measure(scenarios, reference, rotation,
              std::max(0.0, seconds - seconds_since(start)));
  out.attempted += m.attempted;
  out.failed += m.errors.size();
  for (const std::string& e : m.errors) out.fail(e);
  out.note("control_passes", m.passes);
  out.note("control_traced_passes", m.traced_passes);
  out.note("control_dropped_episode_runs", m.dropped);
  out.note("control_steal_share", m.steal);
  if (!m.errors.empty()) return;

  // The loop's own rates come from the untraced passes.  Each episode's
  // wall and CPU time is its median over every worker's runs of it; the
  // rates are built from those medians.  A cycle-time sample is the wall
  // time per control cycle of one episode run; p50 and p99 are taken over
  // every untraced episode run timed.
  const Timings& plain = m.plain;
  std::vector<double> ms_per_cycle, episode_ms_per_cycle;
  double cpu = 0.0;
  for (std::size_t i = 0; i < std::size(kEpisodes); ++i) {
    for (const double x : plain.wall_s[i]) {
      ms_per_cycle.push_back(1e3 * x / kHorizon);
    }
    cpu += median(plain.cpu_s[i]);
    episode_ms_per_cycle.push_back(1e3 * median(plain.wall_s[i]) / kHorizon);
  }
  out.note("control_episode_ms_per_cycle", json_array(episode_ms_per_cycle));
  const double cycles_per_list =
      static_cast<double>(kHorizon * std::size(kEpisodes));
  out.metric("control.cycles_per_s", plain.cycles_per_s(), "1/s");
  out.metric("control.cpu_us_per_cycle", 1e6 * cpu / cycles_per_list, "us");
  out.metric("control.cycle_ms_p50", quantile(ms_per_cycle, 0.5), "ms");
  out.metric("control.cycle_ms_p99", quantile(ms_per_cycle, 0.99), "ms");
  out.metric("control.setup_ms", 1e3 * median(plain.setup_s), "ms");
  out.metric("base.cycle_samples", static_cast<double>(ms_per_cycle.size()),
             "count");

  // Layer attribution from the traced passes.
  const double n_cycles = static_cast<double>(m.traced_cycles);
  double sha = 0.0;
  for (std::size_t i = 0; i < std::size(kEpisodes); ++i) {
    sha += static_cast<double>(m.traced_runs[i] * sha_per_episode[i]);
  }
  const ReplayTimes& rep = m.replayed;
  const double replayed = static_cast<double>(m.replayed_cycles);
  // A single-block digest costs the same whatever the MAC size; only
  // sha256_us is used here.
  const double sha256_us = time_crypto(64, out).sha256_us;
  double avail = 0.0, svc = 0.0, nodes = 0.0, ttr = 0.0;
  double recoveries = 0.0, evictions = 0.0, additions = 0.0, stalls = 0.0,
         view = 0.0;
  for (const emulation::ScenarioResult& r : reference) {
    avail += r.availability;
    svc += r.service_availability;
    nodes += r.avg_nodes;
    ttr += r.time_to_recovery;
    recoveries += r.recoveries;
    evictions += r.evictions;
    additions += r.additions;
    stalls += r.quorum_stalls;
    view += static_cast<double>(r.final_view);
  }
  const double episodes = static_cast<double>(reference.size());
  const double explained_per_cycle =
      (rep.testbed_s + rep.node_s + rep.system_s) / replayed;

  out.metric("crypto.sha256_per_cycle", sha / n_cycles, "count");
  // A lower bound: every digest is priced as the cheapest, single-block one.
  out.metric("crypto.cycle_cpu_share",
             sha * sha256_us / (1e6 * m.traced_cpu_s), "share");
  // The replay took the episodes' own trajectories, so what it leaves of
  // the episode time is the consensus cluster's (and the runner's glue).
  out.metric("consensus.sim_share",
             1.0 - explained_per_cycle / (m.traced_episode_s / n_cycles),
             "share");
  out.metric("consensus.quorum_stalls", stalls, "count");
  out.metric("consensus.episode_final_view", view, "count");
  out.metric("emulation.testbed_step_us", 1e6 * rep.testbed_s / replayed,
             "us");
  out.metric("core.node_step_us", 1e6 * rep.node_s / replayed, "us");
  out.metric("core.system_step_us", 1e6 * rep.system_s / replayed, "us");
  out.metric("core.recoveries", recoveries, "count");
  out.metric("core.evictions", evictions, "count");
  out.metric("core.additions", additions, "count");
  out.metric("control.avail_TA", avail / episodes, "share");
  out.metric("control.svc_avail", svc / episodes, "share");
  out.metric("control.avg_nodes", nodes / episodes, "count");
  out.metric("control.ttr_cycles", ttr / episodes, "cycles");
  // Per traced pass, which fits (and solves) both scenarios once.
  const double passes = static_cast<double>(m.traced_passes);
  out.metric("solvers.detector_fit_ms", 1e3 * m.detector_fit_s / passes,
             "ms");
  out.metric("solvers.cmdp_lp_ms", 1e3 * m.cmdp_lp_s / passes, "ms");
  out.metric("base.cycles", n_cycles, "count");
  out.metric("base.episode_cpu_s", m.traced_cpu_s, "s");
  out.metric("base.cycle_sha256", sha, "count");
  out.metric("base.episode_s", m.traced_episode_s, "s");
}

}  // namespace perfbench
