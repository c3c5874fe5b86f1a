#include "tolerance/util/sharded_counter.hpp"

#include <algorithm>
#include <mutex>
#include <vector>

#include "tolerance/util/ensure.hpp"

namespace tolerance::util {
namespace {

struct Registry {
  std::mutex mu;
  std::vector<const ShardedCounter::Shard*> live;
  std::uint64_t retired[ShardedCounter::kSlots] = {};
};

// Never destroyed: a thread may exit (and fold its shard in) after static
// destructors have run.
Registry& registry() {
  static Registry* const r = new Registry;
  return *r;
}

std::atomic<std::size_t> g_next_slot{0};

}  // namespace

ShardedCounter::Shard::Shard() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.live.push_back(this);
}

ShardedCounter::Shard::~Shard() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (std::size_t s = 0; s < kSlots; ++s) {
    r.retired[s] += cells[s].load(std::memory_order_relaxed);
  }
  r.live.erase(std::find(r.live.begin(), r.live.end(), this));
}

ShardedCounter::ShardedCounter()
    : slot_(g_next_slot.fetch_add(1, std::memory_order_relaxed)) {
  TOL_ENSURE(slot_ < kSlots, "too many ShardedCounter instances");
}

std::uint64_t ShardedCounter::total() const {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::uint64_t sum = r.retired[slot_];
  for (const Shard* shard : r.live) {
    sum += shard->cells[slot_].load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t ShardedCounter::value() const {
  return total() - base_.load(std::memory_order_relaxed);
}

void ShardedCounter::reset() {
  base_.store(total(), std::memory_order_relaxed);
}

}  // namespace tolerance::util
