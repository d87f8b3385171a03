// The common/metrics observability subsystem: histogram merge/percentile
// correctness (known distributions, bucket-boundary values, zero-sample
// behaviour), recorder reset, tracer sampling math and ring wraparound, and
// a concurrent record-while-merge race that is the TSan proof for the
// lock-free recording path (stress-labelled; the sanitizer CI jobs run it).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.hpp"
#include "common/metrics.hpp"

namespace hykv {
namespace {

using metrics::LatencyRecorder;
using metrics::Op;
using metrics::OpTracer;
using metrics::Span;
using metrics::Trace;

// Log-linear bucketing guarantees <= 1/kSubBuckets relative error (3.2% for
// 5 sub-bucket bits) on any reported percentile above the linear range.
constexpr double kMaxRelativeError = 1.0 / LatencyHistogram::kSubBuckets;

TEST(LatencyRecorderTest, UniformDistributionPercentilesWithinBucketError) {
  LatencyRecorder recorder(4);
  // 1..100000 ns uniformly: p50 ~ 50000, p99 ~ 99000, p999 ~ 99900.
  for (std::uint64_t ns = 1; ns <= 100000; ++ns) recorder.record_op(Op::kGet, ns);

  const LatencyHistogram hist = recorder.op_histogram(Op::kGet);
  EXPECT_EQ(hist.count(), 100000u);
  EXPECT_EQ(hist.min_ns(), 1u);
  EXPECT_EQ(hist.max_ns(), 100000u);
  EXPECT_NEAR(hist.mean_ns(), 50000.5, 1.0);

  const struct {
    double p;
    double expected;
  } cases[] = {{50, 50000}, {95, 95000}, {99, 99000}, {99.9, 99900}};
  for (const auto& c : cases) {
    const auto v = static_cast<double>(hist.percentile_ns(c.p));
    // percentile_ns returns a bucket upper bound, so it can only overshoot,
    // and by at most the bucket width.
    EXPECT_GE(v, c.expected * (1.0 - 1e-9)) << "p" << c.p;
    EXPECT_LE(v, c.expected * (1.0 + kMaxRelativeError) + 1.0) << "p" << c.p;
  }
}

TEST(LatencyRecorderTest, MergeAcrossSlotsMatchesSingleHistogram) {
  // The same samples recorded (a) thread-per-slot through the recorder and
  // (b) into one plain histogram must agree exactly on every statistic:
  // merging is count-preserving, not approximate.
  LatencyRecorder recorder(4);
  LatencyHistogram expected;
  for (std::uint64_t ns = 1; ns <= 4096; ++ns) expected.record_ns(ns * 17);

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([&recorder, t] {
      for (std::uint64_t ns = t + 1; ns <= 4096; ns += 4) {
        recorder.record_op(Op::kSet, ns * 17);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const LatencyHistogram merged = recorder.op_histogram(Op::kSet);
  EXPECT_EQ(merged.count(), expected.count());
  EXPECT_EQ(merged.min_ns(), expected.min_ns());
  EXPECT_EQ(merged.max_ns(), expected.max_ns());
  EXPECT_DOUBLE_EQ(merged.mean_ns(), expected.mean_ns());
  for (const double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(merged.percentile_ns(p), expected.percentile_ns(p)) << p;
  }
}

TEST(LatencyRecorderTest, BucketBoundaryValuesRoundTripWithinError) {
  // Exact powers of two sit on major-bucket boundaries -- the place an
  // off-by-one in bucket_index/bucket_upper_bound would show.
  for (const std::uint64_t ns :
       {std::uint64_t{1}, std::uint64_t{31}, std::uint64_t{32},
        std::uint64_t{33}, std::uint64_t{1} << 10, (std::uint64_t{1} << 10) - 1,
        (std::uint64_t{1} << 10) + 1, std::uint64_t{1} << 20,
        std::uint64_t{1} << 40}) {
    LatencyRecorder recorder(1);
    recorder.record_op(Op::kOther, ns);
    const LatencyHistogram hist = recorder.op_histogram(Op::kOther);
    EXPECT_EQ(hist.count(), 1u);
    const std::uint64_t reported = hist.percentile_ns(50);
    EXPECT_GE(reported, ns);  // bucket upper bound never under-reports...
    EXPECT_LE(static_cast<double>(reported),
              static_cast<double>(ns) * (1.0 + kMaxRelativeError) + 1.0)
        << ns;  // ...and overshoots by at most one sub-bucket width
  }
}

TEST(LatencyRecorderTest, ZeroSamplesReportZeroes) {
  const LatencyRecorder recorder(2);
  const LatencyHistogram hist = recorder.op_histogram(Op::kDelete);
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.min_ns(), 0u);
  EXPECT_EQ(hist.max_ns(), 0u);
  EXPECT_EQ(hist.mean_ns(), 0.0);
  for (const double p : {0.0, 50.0, 99.9, 100.0}) {
    EXPECT_EQ(hist.percentile_ns(p), 0u) << p;
  }
}

TEST(LatencyRecorderTest, OpsAndSpansAreIndependent) {
  LatencyRecorder recorder(2);
  recorder.record_op(Op::kGet, 100);
  recorder.record_span(Span::kOptimisticRead, 7);
  EXPECT_EQ(recorder.op_histogram(Op::kGet).count(), 1u);
  EXPECT_EQ(recorder.op_histogram(Op::kSet).count(), 0u);
  EXPECT_EQ(recorder.span_histogram(Span::kOptimisticRead).count(), 1u);
  EXPECT_EQ(recorder.span_histogram(Span::kLockedRead).count(), 0u);
}

TEST(LatencyRecorderTest, SpanSumOverOpsIsPerOpStageTime) {
  LatencyRecorder recorder(2);
  recorder.record_span(Span::kClientWait, 10'000);
  recorder.record_span(Span::kClientWait, 20'000);
  recorder.record_span(Span::kMissPenalty, 2'000'000);
  const LatencyHistogram wait = recorder.span_histogram(Span::kClientWait);
  EXPECT_EQ(wait.sum_ns(), 30'000u);
  EXPECT_DOUBLE_EQ(metrics::per_op_us(wait.sum_ns(), wait.count()), 15.0);
  const LatencyHistogram miss = recorder.span_histogram(Span::kMissPenalty);
  EXPECT_DOUBLE_EQ(metrics::per_op_us(miss.sum_ns(), 4), 500.0);
  EXPECT_DOUBLE_EQ(metrics::per_op_us(123, 0), 0.0);
  // Every span has its own `stats latency` row name.
  for (std::size_t i = 0; i < metrics::kSpanCount; ++i) {
    EXPECT_NE(to_string(static_cast<Span>(i)), "other") << i;
  }
}

TEST(LatencyRecorderTest, ResetClearsEverySlot) {
  LatencyRecorder recorder(3);
  for (int i = 0; i < 100; ++i) {
    recorder.record_op(Op::kTouch, 50);
    recorder.record_span(Span::kSsdFlush, 50);
  }
  recorder.reset();
  EXPECT_EQ(recorder.op_histogram(Op::kTouch).count(), 0u);
  EXPECT_EQ(recorder.span_histogram(Span::kSsdFlush).count(), 0u);
}

// Concurrent record + merge: readers may snapshot mid-record (approximate),
// but nothing tears, and once writers quiesce the counts are exact. This is
// the TSan proof for the relaxed-atomic recording path.
TEST(LatencyRecorderTest, ConcurrentRecordAndMergeIsRaceFreeAndExact) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  LatencyRecorder recorder(kThreads);
  std::atomic<bool> stop{false};

  std::thread merger([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const LatencyHistogram snapshot = recorder.op_histogram(Op::kGet);
      // Snapshot invariants that hold even mid-record.
      EXPECT_LE(snapshot.count(), kThreads * kPerThread);
      if (snapshot.count() > 0) {
        EXPECT_GE(snapshot.max_ns(), snapshot.min_ns());
      }
    }
  });

  std::vector<std::thread> writers;
  for (unsigned t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        recorder.record_op(Op::kGet, (i % 1000) + t + 1);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  merger.join();

  const LatencyHistogram final_hist = recorder.op_histogram(Op::kGet);
  EXPECT_EQ(final_hist.count(), kThreads * kPerThread);
  EXPECT_EQ(final_hist.min_ns(), 1u);
}

// ---------------------------------------------------------------------------
// OpTracer

TEST(OpTracerTest, ShiftZeroDisablesSampling) {
  OpTracer tracer(0);
  EXPECT_FALSE(tracer.enabled());
  std::uint64_t seq = 0;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(tracer.sample(seq));
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(OpTracerTest, SamplesEveryTwoToTheShift) {
  OpTracer tracer(/*sample_shift=*/2, /*slots=*/1, /*ring_capacity=*/64);
  EXPECT_TRUE(tracer.enabled());
  unsigned sampled = 0;
  std::uint64_t seq = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (tracer.sample(seq)) {
      EXPECT_EQ(seq, i);
      EXPECT_EQ(seq % 4, 0u);  // every 2^2-th request, starting at 0
      ++sampled;
    }
  }
  EXPECT_EQ(sampled, 16u);
}

TEST(OpTracerTest, RingWrapsKeepingNewestTraces) {
  constexpr std::size_t kCapacity = 4;
  OpTracer tracer(1, /*slots=*/1, kCapacity);
  for (std::uint64_t i = 0; i < 10; ++i) {
    Trace trace;
    trace.seq = i;
    trace.op = Op::kGet;
    trace.total_ns = i * 100;
    tracer.publish(trace);
  }
  const std::vector<Trace> kept = tracer.snapshot();
  ASSERT_EQ(kept.size(), kCapacity);
  // Oldest entries were overwritten; the newest kCapacity survive, sorted.
  for (std::size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(kept[i].seq, 10 - kCapacity + i);
  }
}

TEST(OpTracerTest, JsonCarriesSpansAndResetsClean) {
  OpTracer tracer(1, 1, 8);
  Trace trace;
  trace.seq = 42;
  trace.op = Op::kSet;
  trace.status = 0;
  trace.start_ns = 1000;
  trace.total_ns = 500;
  trace.add_span(Span::kStorePhase, 10, 400);
  trace.add_span(Span::kResponse, 410, 90);
  tracer.publish(trace);

  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("\"sample_shift\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"seq\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"op\":\"set\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"span\":\"store_phase\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"duration_ns\":400"), std::string::npos) << json;
  EXPECT_NE(json.find("\"span\":\"response\""), std::string::npos) << json;

  tracer.reset();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_NE(tracer.to_json().find("\"traces\":[]"), std::string::npos);
}

TEST(OpTracerTest, TraceSpanCapacityIsBounded) {
  Trace trace;
  for (std::uint32_t i = 0; i < Trace::kMaxSpans + 5; ++i) {
    trace.add_span(Span::kResponse, i, i);
  }
  EXPECT_EQ(trace.span_count, Trace::kMaxSpans);  // extras silently dropped
}

// Concurrent publish + snapshot from many threads (slot sharing included):
// the per-ring mutex keeps it race-free; TSan-checked via the stress label.
TEST(OpTracerTest, ConcurrentPublishAndSnapshot) {
  OpTracer tracer(1, /*slots=*/2, /*ring_capacity=*/16);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto traces = tracer.snapshot();
      EXPECT_LE(traces.size(), 2u * 16u);
    }
  });
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < 4; ++t) {
    writers.emplace_back([&tracer, t] {
      for (std::uint64_t i = 0; i < 20000; ++i) {
        std::uint64_t seq = 0;
        if (tracer.sample(seq)) {
          Trace trace;
          trace.seq = seq;
          trace.op = static_cast<Op>(t % metrics::kOpCount);
          tracer.publish(trace);
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(tracer.snapshot().empty());
}

}  // namespace
}  // namespace hykv
