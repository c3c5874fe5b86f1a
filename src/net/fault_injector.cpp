#include "tolerance/net/fault_injector.hpp"

#include <algorithm>

namespace tolerance::net {

FaultPlan& FaultPlan::normalize() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return *this;
}

void FaultInjector::set_drop(NodeId from, NodeId to, double rate) {
  std::lock_guard<std::mutex> lk(mu_);
  if (rate <= 0.0) {
    drop_rates_.erase({from, to});
  } else {
    drop_rates_[{from, to}] = std::min(rate, 1.0);
  }
}

void FaultInjector::set_corrupt(NodeId from, double rate) {
  std::lock_guard<std::mutex> lk(mu_);
  if (rate <= 0.0) {
    corrupt_rates_.erase(from);
  } else {
    corrupt_rates_[from] = std::min(rate, 1.0);
  }
}

FaultInjector::Action FaultInjector::on_bundle(NodeId from, NodeId to) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!drop_rates_.empty()) {
    auto it = drop_rates_.find({from, to});
    if (it == drop_rates_.end()) {
      it = drop_rates_.find({from, FaultEvent::kAllPeers});
    }
    if (it != drop_rates_.end() && rng_.bernoulli(it->second)) {
      ++drops_;
      return Action::kDrop;
    }
  }
  if (!corrupt_rates_.empty()) {
    const auto it = corrupt_rates_.find(from);
    if (it != corrupt_rates_.end() && rng_.bernoulli(it->second)) {
      ++corruptions_;
      return Action::kCorrupt;
    }
  }
  return Action::kDeliver;
}

void FaultInjector::corrupt(Bytes& bytes) {
  if (bytes.empty()) return;
  std::lock_guard<std::mutex> lk(mu_);
  const int flips = rng_.uniform_int(1, 4);
  for (int i = 0; i < flips; ++i) {
    const auto at = static_cast<std::size_t>(
        rng_.uniform_int(static_cast<int>(bytes.size())));
    bytes[at] ^= static_cast<std::uint8_t>(1u << rng_.uniform_int(8));
  }
}

std::uint64_t FaultInjector::injected_drops() const {
  std::lock_guard<std::mutex> lk(mu_);
  return drops_;
}

std::uint64_t FaultInjector::injected_corruptions() const {
  std::lock_guard<std::mutex> lk(mu_);
  return corruptions_;
}

std::size_t FaultInjector::active_rules() const {
  std::lock_guard<std::mutex> lk(mu_);
  return drop_rates_.size() + corrupt_rates_.size();
}

}  // namespace tolerance::net
