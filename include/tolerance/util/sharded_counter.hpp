// Process-wide event counter for hot paths that many threads bump at once
// (one per SHA-256 digest, one per message-digest request).  Each thread
// adds into its own shard with a plain load and store on memory no other
// thread writes, so counting costs no locked read-modify-write and no cache
// line bouncing between event loops.  A reader sums the live shards plus the
// totals that exited threads folded in, under the registry lock: the value
// is exact once the counting threads have been joined or otherwise
// synchronized with the reader.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace tolerance::util {

class ShardedCounter {
 public:
  /// Counters are few and live for the whole process (namespace-scope
  /// statics); each claims one of kSlots slots in every thread's shard.
  static constexpr std::size_t kSlots = 8;

  ShardedCounter();
  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    std::atomic<std::uint64_t>& cell = local_shard().cells[slot_];
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }

  /// Total added since construction or the last reset().
  std::uint64_t value() const;
  void reset();

  /// One thread's cells; registered on the thread's first add, folded into
  /// the retired totals when the thread exits.
  struct Shard {
    Shard();
    ~Shard();
    std::atomic<std::uint64_t> cells[kSlots] = {};
  };

 private:
  static Shard& local_shard() noexcept {
    thread_local Shard shard;
    return shard;
  }
  std::uint64_t total() const;

  std::size_t slot_;
  std::atomic<std::uint64_t> base_{0};
};

}  // namespace tolerance::util
