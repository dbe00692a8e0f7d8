// Common utility tests: CHECK macros, byte serialization, running stats,
// text tables, RNG determinism, the fork-join work pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/stats.h"
#include "common/text_table.h"
#include "common/timing.h"
#include "common/work_pool.h"

namespace pdw {
namespace {

TEST(Check, PassingConditionIsSilent) {
  PDW_CHECK(1 + 1 == 2);
  PDW_CHECK_EQ(3, 3) << "never evaluated";
}

TEST(Check, FailureThrowsWithContext) {
  try {
    PDW_CHECK_EQ(2, 3) << "custom context " << 42;
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("custom context 42"), std::string::npos);
    EXPECT_NE(msg.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Check, ComparisonVariants) {
  EXPECT_THROW(PDW_CHECK_LT(5, 5), CheckError);
  EXPECT_THROW(PDW_CHECK_GT(5, 5), CheckError);
  EXPECT_THROW(PDW_CHECK_NE(5, 5), CheckError);
  PDW_CHECK_LE(5, 5);
  PDW_CHECK_GE(5, 5);
}

TEST(Bytes, RoundtripAllTypes) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i16(-12345);
  w.i32(-7654321);
  w.f64(3.14159);
  const uint8_t blob[3] = {1, 2, 3};
  w.bytes(blob);

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i16(), -12345);
  EXPECT_EQ(r.i32(), -7654321);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  auto got = r.bytes(3);
  EXPECT_EQ(got[2], 3);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, ReaderOverrunThrows) {
  std::vector<uint8_t> buf = {1, 2};
  ByteReader r(buf);
  r.u16();
  EXPECT_THROW(r.u8(), CheckError);
}

TEST(RunningStat, WelfordMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsSafe) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(SplitMix, DeterministicAndUniform) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  SplitMix64 c(7);
  int buckets[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4000; ++i) ++buckets[c.next_below(4)];
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(buckets[i], 1000, 150);
  SplitMix64 d(9);
  for (int i = 0; i < 100; ++i) {
    const double v = d.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(HumanBytes, Units) {
  EXPECT_EQ(human_bytes(512), "512.00 B");
  EXPECT_EQ(human_bytes(2048), "2.00 KB");
  EXPECT_EQ(human_bytes(3.5 * 1024 * 1024), "3.50 MB");
}

TEST(TextTable, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), CheckError);
  t.add_row({"x", "y"});
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Format, PrintfSemantics) {
  EXPECT_EQ(format("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_LT(t.seconds(), 5.0);
}

TEST(ScopedAccumulator, AddsOnDestruction) {
  double total = 0;
  {
    ScopedAccumulator acc(total);
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }
  EXPECT_GT(total, 0.0);
}

TEST(WorkPool, RunsEveryItemOnceAcrossThreads) {
  WorkPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  std::mutex mu;
  std::set<std::thread::id> threads;
  auto fn = [&](int i) {
    hits[size_t(i)].fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
  };
  pool.run(int(hits.size()), fn);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(threads.size(), 2u) << "idle workers should have joined in";
}

TEST(WorkPool, WithoutWorkersTheCallerRunsEveryItem) {
  WorkPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  int ran = 0;
  auto fn = [&](int) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;
  };
  pool.run(5, fn);
  EXPECT_EQ(ran, 5);
}

TEST(WorkPool, ErrorIsRethrownOnTheCallerAfterEveryItemFinished) {
  WorkPool pool(3);
  std::atomic<int> finished{0};
  auto fn = [&](int i) {
    if (i == 0) PDW_CHECK(false) << "item zero";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    finished.fetch_add(1);
  };
  try {
    pool.run(8, fn);
    FAIL() << "expected the item's CHECK failure";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("item zero"), std::string::npos);
  }
  EXPECT_EQ(finished.load(), 7);
}

TEST(WorkPool, ConcurrentCallersShareTheWorkers) {
  WorkPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c)
    callers.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        auto fn = [&](int) { total.fetch_add(1); };
        pool.run(6, fn);
      }
    });
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), 4 * 50 * 6);
}

}  // namespace
}  // namespace pdw
