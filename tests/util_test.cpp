#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "tolerance/util/ensure.hpp"
#include "tolerance/util/rng.hpp"
#include "tolerance/util/sharded_counter.hpp"
#include "tolerance/util/stopwatch.hpp"
#include "tolerance/util/table.hpp"

namespace tolerance {
namespace {

TEST(Ensure, ThrowsWithContext) {
  try {
    TOL_ENSURE(1 == 2, "one is not two");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
  }
}

TEST(Ensure, PassesSilently) { TOL_ENSURE(true, "never"); }

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, BinomialMean) {
  Rng rng(11);
  double total = 0;
  for (int i = 0; i < 5000; ++i) total += rng.binomial(10, 0.3);
  EXPECT_NEAR(total / 5000.0, 3.0, 0.1);
}

TEST(Rng, BetaInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const double b = rng.beta(0.7, 3.0);
    EXPECT_GT(b, 0.0);
    EXPECT_LT(b, 1.0);
  }
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(9);
  std::vector<double> w{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 20000.0, 0.75, 0.02);
}

TEST(Rng, CategoricalRejectsDegenerate) {
  Rng rng(1);
  std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(rng.categorical(zero), std::invalid_argument);
  std::vector<double> neg{1.0, -0.5};
  EXPECT_THROW(rng.categorical(neg), std::invalid_argument);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(42);
  Rng child = parent.split();
  // Child stream differs from the (advanced) parent stream.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (parent.uniform() != child.uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GT(sink, 0.0);
  const double s = sw.elapsed_seconds();
  EXPECT_GE(s, 0.0);
  EXPECT_GE(sw.elapsed_minutes(), s / 60.0);  // monotone clock
  sw.reset();
  EXPECT_LE(sw.elapsed_seconds(), s + 1.0);
}

TEST(ConsoleTable, PrintsAlignedRows) {
  ConsoleTable t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_NE(out.find("bb"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(ConsoleTable, RejectsWrongArity) {
  ConsoleTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(ConsoleTable, Formatters) {
  EXPECT_EQ(ConsoleTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(ConsoleTable::mean_pm(0.99, 0.01), "0.99 ±0.01");
}

TEST(ShardedCounter, SumsLiveAndExitedThreadsExactly) {
  // Slots are claimed for the life of the process, like the library's
  // namespace-scope counters.
  static util::ShardedCounter counter;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kAdds = 20000;
  counter.add(5);  // the main thread's shard stays live throughout
  std::atomic<bool> done{false};
  std::uint64_t last_seen = 0;
  bool monotone = true;
  std::thread reader([&] {
    // Concurrent reads see a growing total and never tear a shard.
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t v = counter.value();
      monotone = monotone && v >= last_seen;
      last_seen = v;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      for (std::uint64_t i = 0; i < kAdds; ++i) counter.add();
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(monotone);
  // The writers have exited: their counts live on in the retired totals.
  EXPECT_EQ(counter.value(), 5 + kThreads * kAdds);

  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
  std::thread late([] { counter.add(3); });
  late.join();
  counter.add(2);
  EXPECT_EQ(counter.value(), 5u);
}

}  // namespace
}  // namespace tolerance
