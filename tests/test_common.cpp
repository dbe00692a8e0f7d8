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

// A layout exercising every field kind, stated once for all three visitors.
struct Sample {
  uint8_t a = 0;
  uint16_t b = 0;
  uint32_t c = 0;
  uint64_t d = 0;
  int16_t e = 0;
  int32_t f = 0;
  bool flag = false;
  uint16_t narrow = 0;  // u32 on the wire, at most 0xFFFF
  std::vector<uint16_t> list;
};

template <class IO, Layout<Sample> M>
void fields(IO& io, M& m) {
  io.u8(m.a);
  io.u16(m.b);
  io.u32(m.c);
  io.u64(m.d);
  io.i16(m.e);
  io.i32(m.f);
  io.u8(m.flag);
  io.u32(m.narrow, 0xFFFF);
  io.count16(m.list, 2);
  for (auto& v : m.list) io.u16(v);
}

TEST(Bytes, OneLayoutEncodesDecodesAndSizes) {
  const Sample in{0xAB, 0x1234, 0xDEADBEEF, 0x0123456789ABCDEFull,
                  -12345, -7654321, true, 0xBEEF, {7, 8, 9}};
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  fields(w, in);
  ByteSizer sizer;
  fields(sizer, in);
  EXPECT_EQ(sizer.size(), buf.size());
  EXPECT_EQ(buf.size(), 1u + 2 + 4 + 8 + 2 + 4 + 1 + 4 + 2 + 3 * 2);

  ByteReader r(buf);
  Sample out;
  fields(r, out);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(out.a, in.a);
  EXPECT_EQ(out.b, in.b);
  EXPECT_EQ(out.c, in.c);
  EXPECT_EQ(out.d, in.d);
  EXPECT_EQ(out.e, in.e);
  EXPECT_EQ(out.f, in.f);
  EXPECT_TRUE(out.flag);
  EXPECT_EQ(out.narrow, in.narrow);
  EXPECT_EQ(out.list, in.list);
}

TEST(Bytes, ReaderOverrunLatchesFailure) {
  std::vector<uint8_t> buf = {1, 2};
  ByteReader r(buf);
  uint16_t v = 0;
  r.u16(v);
  EXPECT_TRUE(r.done());
  uint8_t past = 7;
  r.u8(past);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(past, 0);  // every field after a failure reads as zero
  EXPECT_TRUE(r.bytes(1).empty());
}

TEST(Bytes, ReaderRejectsCountsAndValuesThatCannotFit) {
  // A count of 0xFFFF two-byte elements with only 4 bytes behind it fails
  // before the vector is resized.
  Sample m;
  std::vector<uint8_t> buf = {0xFF, 0xFF, 1, 0, 2, 0};
  ByteReader counted(buf);
  counted.count16(m.list, 2);
  EXPECT_FALSE(counted.ok());
  EXPECT_TRUE(m.list.empty());

  // A bounded field refuses a wire value above its bound.
  std::vector<uint8_t> wide = {0x00, 0x00, 0x01, 0x00};  // 65536
  ByteReader bounded(wide);
  bounded.u32(m.narrow, 0xFFFF);
  EXPECT_FALSE(bounded.ok());
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
