#include "tolerance/core/policy_buffer.hpp"

#include <thread>

#include "tolerance/util/ensure.hpp"

namespace tolerance::core {

void PolicyBuffer::publish(Table table) {
  TOL_ENSURE(table.epoch > epoch_.load(std::memory_order_acquire),
             "published epochs must be strictly increasing");
  const int back = 1 - active_.load(std::memory_order_acquire);
  // Wait for stragglers: a reader that loaded the old active index but has
  // not yet re-checked it may still pin this slot.  Readers hold a slot only
  // for one table copy, so this spin is bounded and short; the *decision*
  // path never spins (readers never wait for the writer).
  //
  // This handshake is a Dekker pattern, so it needs seq_cst on all four
  // accesses: the flip below and this straggler load here, the reader's pin
  // and its re-check in snapshot().  With release/acquire only, the previous
  // publish's flip may still sit in the store buffer when this load reads
  // `readers_[back] == 0` (store-load reordering, allowed even on x86), while
  // a reader pins `back`, re-reads the stale index and copies the slot this
  // call is about to overwrite: a torn snapshot.  In the single total order
  // of seq_cst operations either the reader's pin precedes this load (the
  // writer waits) or the flip precedes the reader's re-check (the reader
  // retries).
  while (readers_[static_cast<std::size_t>(back)].load(
             std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  slots_[static_cast<std::size_t>(back)] = std::move(table);
  const std::uint64_t epoch = slots_[static_cast<std::size_t>(back)].epoch;
  // The flip: readers that see the new index also see the slot contents
  // written above.
  active_.store(back, std::memory_order_seq_cst);
  epoch_.store(epoch, std::memory_order_release);
}

PolicyBuffer::Table PolicyBuffer::snapshot() const {
  for (;;) {
    const int idx = active_.load(std::memory_order_acquire);
    // seq_cst pin and re-check: the reader half of the handshake in
    // publish().
    readers_[static_cast<std::size_t>(idx)].fetch_add(
        1, std::memory_order_seq_cst);
    if (active_.load(std::memory_order_seq_cst) == idx) {
      Table copy = slots_[static_cast<std::size_t>(idx)];
      readers_[static_cast<std::size_t>(idx)].fetch_sub(
          1, std::memory_order_release);
      return copy;
    }
    // Lost the race with a flip between the index load and the pin: the
    // writer may already be rewriting this slot.  Unpin and retry on the
    // new active slot (at most one extra iteration per concurrent flip).
    readers_[static_cast<std::size_t>(idx)].fetch_sub(
        1, std::memory_order_release);
  }
}

}  // namespace tolerance::core
