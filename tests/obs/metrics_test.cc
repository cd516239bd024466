// Observability-plane unit tests: histogram bucket geometry and percentile
// math, sharded instruments under concurrent writers, registry identity and
// scope allocation, the Prometheus/JSON exposition surfaces, and the log
// rate limiter the slow-request path depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace cntr::obs {
namespace {

// --- Bucket geometry: the log-linear index must be exact for small values,
// monotonic and gapless everywhere, and bounded-relative-error. ---

TEST(HistogramBucketsTest, SmallValuesAreExact) {
  for (uint64_t v = 0; v < Histogram::kSub; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketUpperBound(v), v);
  }
}

TEST(HistogramBucketsTest, UpperBoundsAreTheInclusiveEdges) {
  // BucketUpperBound is the largest value mapping to its bucket: the edge
  // itself lands inside, the next value lands in the next bucket.
  for (size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
    uint64_t edge = Histogram::BucketUpperBound(i);
    EXPECT_EQ(Histogram::BucketIndex(edge), i) << "edge " << edge;
    EXPECT_EQ(Histogram::BucketIndex(edge + 1), i + 1) << "edge " << edge;
  }
}

TEST(HistogramBucketsTest, IndexIsMonotonic) {
  // Dense sweep over the first octaves, then doubling steps with
  // around-the-edge probes across the whole range.
  size_t prev = 0;
  for (uint64_t v = 0; v < 4096; ++v) {
    size_t idx = Histogram::BucketIndex(v);
    EXPECT_GE(idx, prev) << "v=" << v;
    prev = idx;
  }
  for (uint64_t base = 4096; base < (uint64_t{1} << 50); base <<= 1) {
    for (uint64_t v : {base - 1, base, base + 1, base + base / 2}) {
      size_t idx = Histogram::BucketIndex(v);
      EXPECT_GE(idx, prev) << "v=" << v;
      EXPECT_LT(idx, Histogram::kBuckets);
      prev = idx;
    }
  }
}

TEST(HistogramBucketsTest, RelativeErrorIsBounded) {
  // Within an octave the bucket width is 2^octave / kSub, and every value
  // in the octave is >= 2^octave, so the worst-case overshoot of the upper
  // edge is value / kSub.
  for (uint64_t v = Histogram::kSub; v < (uint64_t{1} << 40); v = v * 3 + 7) {
    uint64_t ub = Histogram::BucketUpperBound(Histogram::BucketIndex(v));
    ASSERT_GE(ub, v);
    EXPECT_LE(ub - v, v / Histogram::kSub + 1) << "v=" << v << " ub=" << ub;
  }
}

// --- Percentile math. ---

TEST(HistogramTest, EmptySnapshotQuantilesAreZero) {
  Histogram h;
  Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_EQ(snap.Mean(), 0.0);
}

TEST(HistogramTest, QuantilesTrackTheRecordedDistribution) {
  Histogram h;
  // 1..1000 microseconds' worth of ns values, uniform.
  for (uint64_t i = 1; i <= 1000; ++i) {
    h.Record(i * 1000);
  }
  Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.max, 1000000u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 500500.0);
  // Log-linear buckets bound relative error at 1/kSub (25% edge-to-edge);
  // allow that plus interpolation slack.
  EXPECT_NEAR(snap.Quantile(0.50), 500000.0, 150000.0);
  EXPECT_NEAR(snap.Quantile(0.95), 950000.0, 250000.0);
  // Quantiles are clamped to the recorded max, never past it.
  EXPECT_LE(snap.Quantile(0.99), static_cast<double>(snap.max));
  EXPECT_LE(snap.Quantile(1.0), static_cast<double>(snap.max));
  // Monotonic in q.
  EXPECT_LE(snap.Quantile(0.50), snap.Quantile(0.95));
  EXPECT_LE(snap.Quantile(0.95), snap.Quantile(0.99));
}

TEST(HistogramTest, SingleValueQuantilesCollapseToIt) {
  Histogram h;
  h.Record(777);
  Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.max, 777u);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_LE(snap.Quantile(q), 777.0);
    EXPECT_GE(snap.Quantile(q), 777.0 * (1.0 - 1.0 / Histogram::kSub) - 1);
  }
}

// --- Sharded writers: concurrent increments must never lose a count.
// (This is also the TSan surface for the relaxed-atomic cells.) ---

TEST(CounterTest, ConcurrentAddsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Add();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(HistogramTest, ConcurrentRecordsSumExactly) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * 1000 + 100);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.max, 7100u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Add(5);
  EXPECT_EQ(g.Value(), 12);
}

// --- Registry identity and scopes. ---

TEST(RegistryTest, InstrumentsAreIdempotentAndStable) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("cntr_test_total", {{"mount", "m0"}});
  Counter* b = reg.GetCounter("cntr_test_total", {{"mount", "m0"}});
  Counter* c = reg.GetCounter("cntr_test_total", {{"mount", "m1"}});
  EXPECT_EQ(a, b) << "same (name, labels) must resolve to one instrument";
  EXPECT_NE(a, c) << "distinct labels are distinct series";
  a->Add(3);
  EXPECT_EQ(b->Value(), 3u);
  EXPECT_EQ(c->Value(), 0u);

  Histogram* h1 = reg.GetHistogram("cntr_test_ns", {{"op", "READ"}});
  Histogram* h2 = reg.GetHistogram("cntr_test_ns", {{"op", "READ"}});
  EXPECT_EQ(h1, h2);
}

TEST(RegistryTest, AllocScopeIsMonotonicPerKind) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.AllocScope("mount"), 0u);
  EXPECT_EQ(reg.AllocScope("mount"), 1u);
  EXPECT_EQ(reg.AllocScope("cntrfs"), 0u) << "kinds count independently";
  EXPECT_EQ(reg.AllocScope("mount"), 2u);
}

TEST(RegistryTest, SeriesKeyFormat) {
  EXPECT_EQ(SeriesKey("cntr_x_total", {}), "cntr_x_total");
  EXPECT_EQ(SeriesKey("cntr_x_total", {{"a", "b"}, {"c", "d"}}),
            "cntr_x_total{a=\"b\",c=\"d\"}");
}

// --- Exposition surfaces. ---

TEST(RegistryTest, RenderPrometheusShape) {
  MetricsRegistry reg;
  reg.GetCounter("cntr_reqs_total", {{"mount", "m0"}})->Add(5);
  reg.GetGauge("cntr_depth", {{"mount", "m0"}})->Set(-2);
  Histogram* h = reg.GetHistogram("cntr_lat_ns", {{"mount", "m0"}});
  h->Record(100);
  h->Record(200000);

  std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE cntr_reqs_total counter"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE cntr_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cntr_lat_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("cntr_reqs_total{mount=\"m0\"} 5"), std::string::npos);
  EXPECT_NE(text.find("cntr_depth{mount=\"m0\"} -2"), std::string::npos);
  // Cumulative buckets end at +Inf == _count, plus sum and quantiles.
  EXPECT_NE(text.find("cntr_lat_ns_bucket{mount=\"m0\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("cntr_lat_ns_count{mount=\"m0\"} 2"), std::string::npos);
  EXPECT_NE(text.find("cntr_lat_ns_sum{mount=\"m0\"} 200100"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  // Deterministic: rendering twice gives the same bytes.
  EXPECT_EQ(text, reg.RenderPrometheus());
}

// Minimal structural JSON scan: balanced braces/brackets outside strings,
// no trailing garbage. Enough to catch an escaping or comma bug without a
// JSON library.
void ExpectBalancedJson(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0) << "unbalanced close at offset " << i;
    }
  }
  EXPECT_FALSE(in_string) << "unterminated string";
  EXPECT_EQ(depth, 0) << "unbalanced braces";
}

TEST(RegistryTest, SnapshotJsonSchema) {
  MetricsRegistry reg;
  reg.GetCounter("cntr_reqs_total", {{"mount", "m0"}})->Add(7);
  reg.GetGauge("cntr_depth")->Set(3);
  Histogram* h = reg.GetHistogram("cntr_lat_ns", {{"op", "READ"}});
  for (uint64_t i = 1; i <= 100; ++i) {
    h->Record(i * 10);
  }

  std::string json = reg.SnapshotJson();
  ExpectBalancedJson(json);
  // Top-level sections.
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  // Series keys carry their label blocks; values are numbers.
  EXPECT_NE(json.find("\"cntr_reqs_total{mount=\\\"m0\\\"}\":7"), std::string::npos);
  EXPECT_NE(json.find("\"cntr_depth\":3"), std::string::npos);
  // Histogram entries expose the full summary schema.
  for (const char* field : {"\"count\":100", "\"sum\":", "\"max\":1000", "\"mean\":",
                            "\"p50\":", "\"p95\":", "\"p99\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << "missing " << field;
  }
}

// --- The slow-request log's throttle. ---

TEST(LogRateLimiterTest, CapsPerWindowAndCountsSuppressed) {
  LogRateLimiter limiter(/*max_per_sec=*/3);
  int allowed = 0;
  for (int i = 0; i < 10; ++i) {
    if (limiter.Allow()) {
      ++allowed;
    }
  }
  EXPECT_EQ(allowed, 3);
  EXPECT_EQ(limiter.suppressed_total(), 7u);
}

TEST(LogRateLimiterTest, ReportsSuppressedTallyOnNextAllowedCall) {
  LogRateLimiter limiter(/*max_per_sec=*/1);
  uint64_t suppressed = 123;
  ASSERT_TRUE(limiter.Allow(&suppressed));
  EXPECT_EQ(suppressed, 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(limiter.Allow());
  }
  // The tally survives until a later allowed call drains it (the next
  // window in production; here we read the running total).
  EXPECT_EQ(limiter.suppressed_total(), 5u);
}

TEST(LogRateLimiterTest, ConcurrentCallersNeverExceedTheCapByMuch) {
  // The CAS window rotation admits bounded slack, never unbounded leakage:
  // with one window and N threads racing, allowed stays near the cap and
  // allowed + suppressed accounts for every call.
  LogRateLimiter limiter(/*max_per_sec=*/4);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::atomic<int> allowed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        if (limiter.Allow()) {
          allowed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // All calls land within ~one second, so at most a couple of window
  // rotations' worth of tokens can be issued.
  EXPECT_GE(allowed.load(), 4);
  EXPECT_LE(allowed.load(), 4 * 4);
  EXPECT_EQ(allowed.load() + static_cast<int>(limiter.suppressed_total()),
            kThreads * kPerThread);
}

}  // namespace
}  // namespace cntr::obs
