// Self-tests of the benchmark's own arithmetic (percentiles, the SLO-rate
// interpolation, span self time) and of the tracing decorator's
// transparency. run.py runs them before every measurement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "runtime/backend.hpp"
#include "runtime/driver.hpp"
#include "runtime/serving.hpp"
#include "src/spans.hpp"
#include "src/stats.hpp"
#include "src/traced_backend.hpp"
#include "tgnn/config.hpp"
#include "tgnn/model.hpp"

namespace perfbench {
namespace {

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

// ---- percentile selection ---------------------------------------------------

TEST(Percentile, NearestRankOnUnsortedInput) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(v, 0.5), 3.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile(v, 1.0), 5.0);
  EXPECT_EQ(percentile(iota_samples(1000), 0.99), 990.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(supports_percentile(1000, 0.99));
  EXPECT_FALSE(supports_percentile(999, 0.99));
  EXPECT_TRUE(supports_percentile(200, 0.95));
  EXPECT_FALSE(supports_percentile(199, 0.95));
  EXPECT_TRUE(supports_percentile(20, 0.5));
  EXPECT_FALSE(supports_percentile(19, 0.5));
}

TEST(Percentile, PooledTailSeesAStallInAFewSamples) {
  // 8000 samples, a 100-sample stall in each of two stretches: 2.5% of the
  // samples are slow, so the p99 is the stall and the p50 is not.
  std::vector<double> v(8000, 1.0);
  for (std::size_t start : {1000, 6000})
    for (std::size_t i = 0; i < 100; ++i) v[start + i] = 50.0;
  EXPECT_EQ(percentile(v, 0.99), 50.0);
  EXPECT_EQ(median(v), 1.0);
}

TEST(Percentile, ShareWithinCountsEverySample) {
  std::vector<double> v(1000, 1.0);
  for (std::size_t i = 0; i < 15; ++i) v[i * 60] = 9.0;
  EXPECT_DOUBLE_EQ(share_within(v, 5.0), 0.985);
  EXPECT_DOUBLE_EQ(share_within(v, 9.0), 1.0);
  // An unserved request is +inf: a miss at every limit.
  v.push_back(std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(share_within(v, 1e300), 1000.0 / 1001.0);
  EXPECT_EQ(share_within({}, 5.0), 0.0);
}

// ---- quiet parts ------------------------------------------------------------

struct StealPart {
  double steal;
  int id;
};

std::vector<int> kept_ids(const std::vector<StealPart>& parts) {
  std::vector<int> ids;
  for (const StealPart& p : quiet_parts(parts)) ids.push_back(p.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(QuietParts, KeepsEveryQuietPart) {
  EXPECT_EQ(kept_ids({{0.0, 0}, {0.02, 1}, {0.001, 2}, {0.005, 3}, {0.3, 4}}),
            (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(kept_ids({{0.0, 0}, {0.0, 1}, {0.0, 2}, {0.0, 3}}),
            (std::vector<int>{0, 1, 2, 3}));
}

TEST(QuietParts, KeepsAtLeastTheLeastStolenHalf) {
  // One quiet part of five: the three with the least steal.
  EXPECT_EQ(kept_ids({{0.05, 0}, {0.02, 1}, {0.0, 2}, {0.09, 3}, {0.03, 4}}),
            (std::vector<int>{1, 2, 4}));
  // None quiet: still half, rounded up.
  EXPECT_EQ(kept_ids({{0.4, 0}, {0.1, 1}, {0.2, 2}, {0.3, 3}}),
            (std::vector<int>{1, 2}));
  EXPECT_EQ(kept_ids({{0.4, 0}}), (std::vector<int>{0}));
  EXPECT_TRUE(kept_ids({}).empty());
}

// ---- slo_rps interpolation --------------------------------------------------

constexpr double kLimit = 5e-3;

TEST(SloRps, AllPassReturnsTopRate) {
  const std::vector<LadderStep> steps = {
      {8e3, 1e-3, 1.0}, {12e3, 2e-3, 1.0}, {16e3, 4.9e-3, 0.99}};
  EXPECT_EQ(slo_rps(steps, kLimit), 16e3);
}

TEST(SloRps, InterpolatesBetweenBracketingSteps) {
  // Margins log(5/2.5) = ln 2 and log(5/10) = -ln 2: the crossing is
  // halfway between the two rates.
  const std::vector<LadderStep> steps = {
      {8e3, 1e-3, 1.0}, {12e3, 2.5e-3, 1.0}, {16e3, 10e-3, 1.0},
      {20e3, 50e-3, 0.9}};
  EXPECT_NEAR(slo_rps(steps, kLimit), 14e3, 1e-6);
}

TEST(SloRps, AllFailInterpolatesBelowTheFirstRate) {
  // Virtual rate-0 step with margin 1; first step margin -1: halfway.
  const std::vector<LadderStep> steps = {{8e3, kLimit * std::exp(1.0), 1.0},
                                         {12e3, 1.0, 0.5}};
  const double r = slo_rps(steps, kLimit);
  EXPECT_NEAR(r, 4e3, 1e-6);
  EXPECT_GT(r, 0.0);
}

TEST(SloRps, GrowingBacklogFailsAStepWithinTheLatencyLimit) {
  const std::vector<LadderStep> steps = {{8e3, 1e-3, 1.0},
                                         {12e3, 4e-3, 0.97}};
  const double r = slo_rps(steps, kLimit);
  EXPECT_GE(r, 8e3);
  EXPECT_LT(r, 12e3);
}

TEST(SloRps, MovesContinuouslyWhenAStepCrossesTheLimit) {
  auto at = [](double p99_mid) {
    return slo_rps({{8e3, 1e-3, 1.0}, {12e3, p99_mid, 1.0},
                    {16e3, 40e-3, 0.9}},
                   kLimit);
  };
  const double below = at(kLimit * 0.999);
  const double above = at(kLimit * 1.001);
  EXPECT_NEAR(below, above, 0.01 * 12e3);
  EXPECT_GT(below, above);
}

TEST(SloRps, RejectsEmptyAndUnorderedLadders) {
  EXPECT_THROW(slo_rps({}, kLimit), std::invalid_argument);
  EXPECT_THROW(slo_rps({{8e3, 1e-3, 1.0}, {8e3, 1e-3, 1.0}}, kLimit),
               std::invalid_argument);
}

// ---- span self time ---------------------------------------------------------

TEST(Spans, SelfTimeSubtractsCoveredChildIntervalOnce) {
  std::vector<Span> s(5);
  s[0] = {"batch", 7, 0, kNoParent, 0.0, 10.0};
  s[1] = {"stage", 7, 0, 0, 1.0, 4.0};
  s[2] = {"stage", 7, 1, 0, 3.0, 6.0};    // overlaps s[1]: union [1, 6]
  s[3] = {"stage", 7, 0, 0, 9.0, 12.0};   // clipped to [9, 10]
  s[4] = {"kernel", 7, 0, 1, 2.0, 3.0};   // grandchild: s[1] only
  const std::vector<double> self = self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(Spans, RecorderWritesChromeTraceEvents) {
  SpanRecorder rec;
  const auto parent = rec.begin("backend.batch", 42);
  rec.record("stage.decode", 42, rec.now(), rec.now() + 1e-6, parent);
  rec.end(parent);
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, parent);
  EXPECT_GE(spans[0].end_s, spans[0].start_s);

  const std::string path = "perfbench_selftest_trace.json";
  ASSERT_TRUE(rec.write_chrome_trace(path, {{"seed", "1"}}));
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"stage.decode\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"seed\":\"1\""), std::string::npos);
}

// ---- decorator transparency -------------------------------------------------

namespace rt = tgnn::runtime;

struct Slice {
  tgnn::data::Dataset ds;
  std::unique_ptr<tgnn::core::TgnModel> model;
  std::size_t start = 0;
};

const Slice& small_slice() {
  static const Slice s = [] {
    Slice out;
    tgnn::data::SyntheticConfig cfg;
    cfg.num_users = 300;
    cfg.num_items = 300;
    cfg.num_edges = 3000;
    cfg.edge_dim = 16;
    cfg.seed = 3;
    out.ds = tgnn::data::make_synthetic(cfg);
    const auto mcfg = tgnn::core::np_config('M', out.ds.edge_dim(),
                                            out.ds.node_dim());
    out.model = std::make_unique<tgnn::core::TgnModel>(mcfg, 3);
    if (out.model->lut_encoder() != nullptr)
      out.model->fit_lut(
          tgnn::core::collect_dt_samples(out.ds, out.ds.train_range()));
    out.start = out.ds.test_range().begin;
    return out;
  }();
  return s;
}

struct Served {
  std::vector<tgnn::graph::BatchRange> log;
  std::vector<float> memory;
};

/// Serve the slice's test split, all requests submitted at once with a
/// long max_wait, so every batch forms at the size cap: the batch log does
/// not depend on timing.
Served serve(const std::string& key, rt::ServingOptions sopts, bool traced) {
  const Slice& s = small_slice();
  rt::BackendOptions bopts;
  bopts.threads = 2;
  auto backend = rt::make_backend(key, *s.model, s.ds, bopts);
  rt::fast_forward(*backend, s.start);
  SpanRecorder spans;
  TraceSink sink(spans);
  auto wrapped = wrap(*backend, sink);
  sopts.max_batch = 16;
  sopts.max_wait_s = 10.0;
  sopts.queue_capacity = s.ds.num_edges();
  sopts.deterministic = true;
  Served out;
  {
    rt::ServingEngine engine(traced ? *wrapped : *backend, sopts);
    for (std::size_t i = s.start; i < s.ds.num_edges(); ++i) engine.submit(i);
    engine.drain();
    out.log = engine.batch_log();
  }
  EXPECT_EQ(sink.batches().size(), traced ? out.log.size() : 0u);
  const auto& mem = backend->runtime_state()->memory;
  for (tgnn::graph::NodeId v = 0; v < mem.num_nodes(); ++v) {
    const auto row = mem.get(v);
    out.memory.insert(out.memory.end(), row.begin(), row.end());
  }
  return out;
}

void expect_transparent(const std::string& key, rt::ServingOptions sopts) {
  const Served plain = serve(key, sopts, false);
  const Served traced = serve(key, sopts, true);
  ASSERT_EQ(plain.log.size(), traced.log.size());
  for (std::size_t i = 0; i < plain.log.size(); ++i) {
    EXPECT_EQ(plain.log[i].begin, traced.log[i].begin);
    EXPECT_EQ(plain.log[i].end, traced.log[i].end);
  }
  EXPECT_TRUE(plain.memory == traced.memory);
}

TEST(Decorator, ExposesExactlyTheWrappedInterfaces) {
  const Slice& s = small_slice();
  SpanRecorder spans;
  TraceSink sink(spans);
  auto cpu = rt::make_backend("cpu", *s.model, s.ds);
  auto sharded = rt::make_backend("sharded-cpu", *s.model, s.ds);
  auto gpu = rt::make_backend("gpu-sim", *s.model, s.ds);
  const auto wc = wrap(*cpu, sink);
  const auto ws = wrap(*sharded, sink);
  const auto wg = wrap(*gpu, sink);
  EXPECT_NE(dynamic_cast<rt::StagedBackend*>(wc.get()), nullptr);
  EXPECT_EQ(dynamic_cast<rt::ConcurrentBackend*>(wc.get()), nullptr);
  EXPECT_NE(dynamic_cast<rt::StagedBackend*>(ws.get()), nullptr);
  EXPECT_NE(dynamic_cast<rt::ConcurrentBackend*>(ws.get()), nullptr);
  EXPECT_EQ(dynamic_cast<rt::StagedBackend*>(wg.get()), nullptr);
  EXPECT_EQ(dynamic_cast<rt::ConcurrentBackend*>(wg.get()), nullptr);
}

TEST(Decorator, TransparentOnSerialEngine) {
  expect_transparent("cpu", {});
}

TEST(Decorator, TransparentOnWorkerLanes) {
  rt::ServingOptions o;
  o.workers = 2;
  expect_transparent("sharded-cpu", o);
}

TEST(Decorator, TransparentOnOutOfCorePipeline) {
  rt::ServingOptions o;
  o.pipelined = true;
  o.pipeline_depth = 4;
  expect_transparent("cpu:mem=25%", o);
}

TEST(Decorator, StageTimesSumToTheBackendCall) {
  const Slice& s = small_slice();
  auto backend = rt::make_backend("cpu", *s.model, s.ds);
  rt::fast_forward(*backend, s.start);
  SpanRecorder spans;
  TraceSink sink(spans);
  rt::ServingOptions o;
  o.pipelined = true;
  {
    auto wrapped = wrap(*backend, sink);
    rt::ServingEngine engine(*wrapped, o);
    for (std::size_t i = s.start; i < s.start + 200; ++i) engine.submit(i);
    engine.drain();
  }
  const auto batches = sink.batches();
  ASSERT_FALSE(batches.empty());
  for (const auto& b : batches) {
    double sum = 0.0;
    for (double t : b.stage_s) sum += t;
    EXPECT_GT(sum, 0.0);
    EXPECT_LE(sum, b.call_s);
  }
  // Every staged batch opened a "backend.batch" span with stage children.
  const auto all = spans.snapshot();
  std::size_t children = 0;
  for (const auto& sp : all)
    if (sp.parent != kNoParent) ++children;
  EXPECT_GE(children, 4 * batches.size());
}

}  // namespace
}  // namespace perfbench
