#include "workloads.hpp"

#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "data/synthetic.hpp"
#include "kernels/fused.hpp"
#include "runtime/backend.hpp"
#include "runtime/driver.hpp"
#include "runtime/serving.hpp"
#include "stats.hpp"
#include "tgnn/complexity.hpp"
#include "tgnn/config.hpp"
#include "tgnn/inference.hpp"
#include "tgnn/model.hpp"
#include "tgnn/serialize.hpp"
#include "traced_backend.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

namespace {

namespace rt = tgnn::runtime;
namespace core = tgnn::core;
namespace graph = tgnn::graph;
namespace data = tgnn::data;
using Clock = std::chrono::steady_clock;

// ---- workload definitions ---------------------------------------------------

enum class Kind { kReplay, kServe };

struct Spec {
  std::string name;
  Kind kind = Kind::kReplay;
  std::string preset;  ///< "baseline" | "npM"
  std::string key;     ///< runtime backend registry key
  int threads = 1;     ///< BackendOptions::threads (0 = nproc)
  double limit_s = 0.0;  ///< per-request latency limit
  /// serve-*: offered rates in requests/s, ascending; ladder[0] is the
  /// nominal rate.
  std::vector<double> ladder;
  // replay-wiki
  double wiki_scale = 0.0;
  std::size_t replay_batch = 200;
  // serve-*
  data::SyntheticConfig syn;
  std::size_t ff_edges = 0;  ///< stream prefix fast-forwarded at set-up
  rt::ServingOptions sopts;
};

/// Generator lateness (p99 over all of the nominal step's requests) beyond
/// this share of the latency limit makes the run invalid: lateness alone
/// would then fail the SLO, so the figures no longer describe the program.
/// Below it, lateness is part of each request's latency (timed from its
/// due time), so it cannot hide a slow program.
constexpr double kMaxLateShare = 1.0;
/// Stated tolerance of the replay check, per embedding element:
/// |got - ref| <= atol + rtol * |ref| against the per-row reference.
constexpr double kReplayAtol = 1e-5;
constexpr double kReplayRtol = 1e-4;
/// Set-ups per run; setup_s is their median. The run keeps the first; the
/// others only time it.
constexpr int kSetups = 3;
/// Edges of the probe batch of the serve output check, run at the end.
constexpr std::size_t kProbeEdges = 32;
/// serve-*: passes through the whole ladder per run.
constexpr std::size_t kRounds = 5;
/// serve-*: untimed batches at the start of each closed-loop segment.
constexpr std::size_t kSegmentWarmup = 32;
/// serve-*: stream edges processed untimed before anything is measured.
/// Until then an out-of-core store is still spilling pages it has never
/// written, and its first ladder round runs several times slower.
constexpr std::size_t kWarmupEdges = 40000;

Spec make_spec(const std::string& name) {
  Spec s;
  s.name = name;
  if (name == "replay-wiki") {
    s.kind = Kind::kReplay;
    s.preset = "baseline";
    s.key = "cpu-mt";
    s.threads = 0;
    s.wiki_scale = 2.0;
    s.limit_s = 5e-3;
    return s;
  }
  if (name == "serve-sparse" || name == "serve-skew-oocore") {
    s.kind = Kind::kServe;
    s.preset = "npM";
    // The sharded-serve graph shape: 40k nodes, 32-d edge features, items
    // spread over the whole catalogue, a user's next event batches away.
    s.syn.num_users = 20000;
    s.syn.num_items = 20000;
    s.syn.edge_dim = 32;
    s.syn.num_communities = 1;
    s.syn.repeat_prob = 0.2;
    s.syn.pareto_xm = 3600.0;
    s.ff_edges = 40000;
    s.sopts.max_batch = 32;
    s.sopts.max_wait_s = 1e-3;
    s.sopts.deterministic = true;
    if (name == "serve-sparse") {
      s.syn.name = "serve-sparse";
      s.syn.user_zipf_s = 0.0;  // uniform users: disjoint footprints
      s.key = "sharded-cpu";
      s.threads = 2;  // lanes; + generator + scheduler = 4 threads
      s.sopts.workers = 2;
      s.ladder = {8e3, 12e3, 15e3, 18e3, 21e3, 24e3, 27e3};
      s.limit_s = 5e-3;
    } else {
      s.syn.name = "serve-skew";
      s.syn.user_zipf_s = 1.4;  // hot users: conflicting footprints
      s.key = "cpu:mem=25%";
      s.threads = 1;
      s.sopts.pipelined = true;
      s.sopts.pipeline_depth = 4;
      // The engine's default wait: half as many batches per request as
      // 1 ms, so half as many hand-offs between the stage workers. Over ten
      // seeds the nominal p99 spread (IQR/median) was 0.15, against 0.48
      // at 1 ms.
      s.sopts.max_wait_s = 2e-3;
      // Nominal near half of capacity: at lower rates the four stage
      // workers sit idle between batches, and their wake-ups on a shared
      // host set the tail (over four seeds the p99 read 2.4-6.3 ms at 6k
      // req/s, 2.4-3.9 ms at 8k); at 12k some parts build a backlog.
      s.ladder = {8e3, 10e3, 12e3, 14e3, 16e3, 18e3, 20e3};
      s.limit_s = 10e-3;
    }
    return s;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Shares of --seconds. replay-wiki spends it in the closed loop. serve-*
/// splits it between the nominal step, the other ladder steps and the
/// closed-loop replay after them.
constexpr double kReplayShare = 0.9;
/// replay-wiki: segments of the closed loop, each checked for host steal.
constexpr std::size_t kReplaySegments = 20;
constexpr double kNominalShare = 0.4;
constexpr double kLadderShare = 0.35;
constexpr double kServeReplayShare = 0.25;
/// Stream edges reserved per second of a serve closed-loop segment, on top
/// of its warm-up. The serve backends reach 15k-27k edges/s in that loop
/// on 4 cores, so the budget, not the reservation, ends a segment; a
/// segment that runs out of edges first stops early and is reported.
constexpr double kServeReplayEdgesPerSecond = 50e3;

std::size_t requests_for(double rate, double seconds) {
  return static_cast<std::size_t>(std::llround(rate * seconds));
}

// ---- host steal -------------------------------------------------------------

/// The machine's CPU time so far, summed over all CPUs, in clock ticks:
/// all of it, and the part the hypervisor gave to other guests while this
/// one had work ("steal"). Zeros where /proc/stat is not available.
struct CpuTimes {
  unsigned long long total = 0, steal = 0;
};

CpuTimes cpu_times() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // user nice system idle iowait irq softirq steal; guest time is already
  // counted in user and nice.
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

/// Share of the machine's CPU time between `a` and `now` that was stolen.
double steal_since(const CpuTimes& a) {
  const CpuTimes b = cpu_times();
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}


// ---- set-up -----------------------------------------------------------------

core::ModelConfig config_for(const data::Dataset& ds,
                             const std::string& preset) {
  if (preset == "baseline")
    return core::baseline_config(ds.edge_dim(), ds.node_dim());
  return core::np_config(preset.back(), ds.edge_dim(), ds.node_dim());
}

/// Everything one set-up builds. Heap-held and never moved: the model and
/// backends keep references into the dataset.
struct Setup {
  data::Dataset ds;
  std::unique_ptr<core::TgnModel> model;
  std::unique_ptr<rt::Backend> backend;
  std::size_t start = 0;  ///< first replayed / served stream index
  // replay-wiki: backend state at `start` (each pass restores it), the
  // fixed batches of the test split, and their reference embeddings.
  std::string checkpoint;
  std::vector<graph::BatchRange> batches;
  std::vector<core::BatchResult> reference;
  // serve-*: serial "cpu" reference backend, fast-forwarded to `start`.
  std::unique_ptr<rt::Backend> ref_backend;

  double generate_s = 0.0, model_build_s = 0.0, fast_forward_s = 0.0,
         total_s = 0.0;

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
  ~Setup() {
    if (!checkpoint.empty()) std::remove(checkpoint.c_str());
  }
};

/// Generate, build the model, fast-forward the backend under test, and
/// build the correctness reference — the work setup_s times.
std::unique_ptr<Setup> set_up(const Spec& spec, const RunOptions& opts,
                              std::size_t serve_edges) {
  auto su = std::make_unique<Setup>();
  tgnn::Stopwatch total;
  tgnn::Stopwatch sw;
  if (spec.kind == Kind::kReplay) {
    su->ds = data::wikipedia_like(spec.wiki_scale, opts.seed);
  } else {
    data::SyntheticConfig cfg = spec.syn;
    cfg.num_edges = spec.ff_edges + serve_edges;
    cfg.seed = opts.seed;
    su->ds = data::make_synthetic(cfg);
    data::apply_chrono_split(su->ds,
                             static_cast<double>(spec.ff_edges) /
                                 static_cast<double>(cfg.num_edges),
                             0.0);
  }
  su->start = su->ds.test_range().begin;
  su->generate_s = sw.seconds();

  sw.reset();
  const core::ModelConfig cfg = config_for(su->ds, spec.preset);
  su->model = std::make_unique<core::TgnModel>(cfg, opts.seed);
  if (su->model->lut_encoder() != nullptr)
    su->model->fit_lut(core::collect_dt_samples(su->ds, {0, su->start}));
  su->model_build_s = sw.seconds();

  sw.reset();
  rt::BackendOptions bopts;
  bopts.threads = spec.threads;
  su->backend = rt::make_backend(spec.key, *su->model, su->ds, bopts);
  rt::fast_forward(*su->backend, su->start);
  su->fast_forward_s = sw.seconds();

  if (spec.kind == Kind::kReplay) {
    su->checkpoint = opts.out_dir + "/state-" + spec.name + "-" +
                     std::to_string(::getpid()) + ".bin";
    if (!core::save_state(su->checkpoint, *su->backend->runtime_state(),
                          su->start))
      throw std::runtime_error("cannot write " + su->checkpoint);
    // A different path than the timed one: a fresh engine on one thread,
    // fast-forwarded on its own, running the per-row GNN pipeline.
    omp_set_num_threads(1);
    core::InferenceEngine ref(*su->model, su->ds);
    ref.set_batched_gnn(false);
    ref.warmup({0, su->start}, rt::BackendOptions{}.warmup_batch);
    su->batches = su->ds.graph.fixed_size_batches(
        su->start, su->ds.num_edges(), spec.replay_batch);
    su->reference.reserve(su->batches.size());
    for (const auto& r : su->batches)
      su->reference.push_back(ref.process_batch(r));
  } else {
    rt::BackendOptions ropts;
    ropts.threads = 1;
    su->ref_backend = rt::make_backend("cpu", *su->model, su->ds, ropts);
    rt::fast_forward(*su->ref_backend, su->start);
  }
  su->total_s = total.seconds();
  return su;
}

void restore(rt::Backend& b, const Setup& su) {
  std::uint64_t cursor = 0;
  if (!core::load_state(su.checkpoint, *b.runtime_state(), cursor) ||
      cursor != su.start)
    throw std::runtime_error("cannot restore " + su.checkpoint);
}

struct SetupTimes {
  std::vector<double> total, generate, model_build, fast_forward;

  void add(const Setup& su) {
    total.push_back(su.total_s);
    generate.push_back(su.generate_s);
    model_build.push_back(su.model_build_s);
    fast_forward.push_back(su.fast_forward_s);
  }
};

/// Release the set-up the run kept, then time kSetups - 1 more, so that
/// setup_s is a median rather than one sample. Runs after peak_rss_mb is
/// read, so the extra set-ups do not count in it.
SetupTimes time_setups(std::unique_ptr<Setup> kept, const Spec& spec,
                       const RunOptions& opts, std::size_t serve_edges) {
  SetupTimes t;
  t.add(*kept);
  kept.reset();
  for (int i = 1; i < kSetups; ++i) t.add(*set_up(spec, opts, serve_edges));
  return t;
}

// ---- output checks ----------------------------------------------------------

/// Replay check: same vertices, embeddings within the stated tolerance.
bool within_tolerance(const core::BatchResult& got,
                      const core::BatchResult& ref) {
  if (got.nodes != ref.nodes) return false;
  const tgnn::Tensor& a = got.embeddings;
  const tgnn::Tensor& b = ref.embeddings;
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows() * a.cols(); ++i) {
    const double x = a.data()[i], y = b.data()[i];
    if (!(std::fabs(x - y) <= kReplayAtol + kReplayRtol * std::fabs(y)))
      return false;
  }
  return true;
}

bool bit_identical(const core::BatchResult& got,
                   const core::BatchResult& ref) {
  const tgnn::Tensor& a = got.embeddings;
  const tgnn::Tensor& b = ref.embeddings;
  return got.nodes == ref.nodes && a.rows() == b.rows() &&
         a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(float)) ==
             0;
}

/// Every vertex's memory row, copied out. No batch may be in flight: an
/// out-of-core store faults rows in one at a time, single-threaded.
std::vector<float> capture_memory(rt::Backend& b) {
  const core::RuntimeState& st = *b.runtime_state();
  const std::size_t dim = st.memory.dim();
  std::vector<float> out(static_cast<std::size_t>(st.memory.num_nodes()) *
                         dim);
  for (graph::NodeId v = 0; v < st.memory.num_nodes(); ++v) {
    const auto row = st.memory.get(v);
    std::copy(row.begin(), row.end(),
              out.begin() + static_cast<std::ptrdiff_t>(v * dim));
  }
  return out;
}

/// The state a serving run leaves: final vertex memory, then one probe
/// batch processed on top of it.
struct ServedState {
  std::vector<float> memory;
  core::BatchResult probe;
};

ServedState capture_served(rt::Backend& b, const graph::BatchRange& probe) {
  ServedState s;
  s.memory = capture_memory(b);
  s.probe = b.process_batch(probe).functional;
  return s;
}

/// Replay `log` serially on the reference "cpu" backend, then compare the
/// served state bit for bit. Returns the number of failed comparisons.
std::size_t check_served(Setup& su, const std::vector<graph::BatchRange>& log,
                         const graph::BatchRange& probe,
                         const ServedState& got,
                         std::vector<std::string>& problems) {
  for (const auto& r : log) (void)su.ref_backend->process_batch(r);
  const ServedState want = capture_served(*su.ref_backend, probe);
  std::size_t bad = 0;
  if (got.memory != want.memory) {
    ++bad;
    problems.push_back("final vertex memory differs from the serial cpu "
                       "replay of batch_log()");
  }
  if (!bit_identical(got.probe, want.probe)) {
    ++bad;
    problems.push_back("probe batch embeddings differ from the serial cpu "
                       "replay of batch_log()");
  }
  return bad;
}

// ---- closed loop ------------------------------------------------------------

struct ClosedLoop {
  std::vector<double> batch_s;  ///< wall time per process_batch call
  std::vector<std::size_t> batch_edges;
  std::size_t edges = 0;
  double busy_s = 0.0;          ///< Σ batch_s
  std::size_t mismatches = 0;
  /// Traced run: every other batch goes through the tracing decorator;
  /// those batches are counted here instead of above.
  std::size_t traced_edges = 0;
  double traced_busy_s = 0.0;
  /// serve-*: segments that ran out of reserved edges before their budget.
  std::size_t short_segments = 0;
  double steal = 0.0;  ///< host steal share while it ran (cpu_times)

  /// Edges per second of process_batch call time.
  [[nodiscard]] double rate() const {
    return static_cast<double>(edges) / busy_s;
  }

  /// Per-edge time through the decorator over per-edge time without it.
  [[nodiscard]] double trace_overhead() const {
    return (traced_busy_s / static_cast<double>(traced_edges)) /
               (busy_s / static_cast<double>(edges)) -
           1.0;
  }
};

/// Closed-loop segments as one: samples appended, counts summed.
ClosedLoop merged(const std::vector<ClosedLoop>& segs) {
  ClosedLoop all;
  for (const ClosedLoop& c : segs) {
    all.batch_s.insert(all.batch_s.end(), c.batch_s.begin(), c.batch_s.end());
    all.batch_edges.insert(all.batch_edges.end(), c.batch_edges.begin(),
                           c.batch_edges.end());
    all.edges += c.edges;
    all.busy_s += c.busy_s;
    all.mismatches += c.mismatches;
    all.traced_edges += c.traced_edges;
    all.traced_busy_s += c.traced_busy_s;
    all.short_segments += c.short_segments;
  }
  return all;
}

/// One timed process_batch call; with `traced` set, odd calls go through
/// the decorator (same backend underneath, so the stream stays one).
rt::BatchOutput timed_batch(ClosedLoop& cl, rt::Backend& b,
                            rt::Backend* traced, const graph::BatchRange& r) {
  const bool through_trace = traced != nullptr && cl.batch_s.size() % 2 == 1;
  const auto t0 = Clock::now();
  rt::BatchOutput out = (through_trace ? *traced : b).process_batch(r);
  const double d = std::chrono::duration<double>(Clock::now() - t0).count();
  cl.batch_s.push_back(d);
  cl.batch_edges.push_back(r.size());
  (through_trace ? cl.traced_busy_s : cl.busy_s) += d;
  (through_trace ? cl.traced_edges : cl.edges) += r.size();
  return out;
}

/// replay-wiki: replay the test split's batches through process_batch,
/// restoring the set-up state before each pass, in `segments` segments of
/// `budget_s / segments` batch time each. Each output is checked against
/// the reference outside the timed call.
std::vector<ClosedLoop> replay_passes(rt::Backend& b, const Setup& su,
                                      double budget_s, std::size_t segments,
                                      rt::Backend* traced = nullptr) {
  std::vector<ClosedLoop> out(segments);
  std::size_t i = su.batches.size();  // next batch of the pass
  for (ClosedLoop& cl : out) {
    const CpuTimes t0 = cpu_times();
    while (cl.busy_s + cl.traced_busy_s <
           budget_s / static_cast<double>(segments)) {
      if (i == su.batches.size()) {
        restore(b, su);
        i = 0;
      }
      const rt::BatchOutput r = timed_batch(cl, b, traced, su.batches[i]);
      if (!within_tolerance(r.functional, su.reference[i])) ++cl.mismatches;
      ++i;
    }
    cl.steal = steal_since(t0);
  }
  return out;
}

/// serve-*: untimed process_batch calls over the whole of `span`, in
/// batches of `batch` edges (the last one may be shorter); appends every
/// processed range to `log`. Returns the end of `span`.
std::size_t process_untimed(rt::Backend& b, graph::BatchRange span,
                            std::size_t batch,
                            std::vector<graph::BatchRange>& log) {
  for (std::size_t origin = span.begin; origin < span.end; origin += batch) {
    const graph::BatchRange r{origin, std::min(origin + batch, span.end)};
    (void)b.process_batch(r);
    log.push_back(r);
  }
  return span.end;
}

/// serve-*: one closed-loop segment over the reserved stretch `span` of
/// the stream, in batches of `batch` edges, until `budget_s` more call time
/// is spent or the stretch runs out. Appends to `cl`, and every processed
/// range to `log`. The first kSegmentWarmup batches run untimed: a segment
/// follows an engine run whose scheduling left a different resident set
/// in an out-of-core store, and its refill is not the closed loop's cost.
void replay_segment(ClosedLoop& cl, rt::Backend& b, graph::BatchRange span,
                    std::size_t batch, double budget_s,
                    std::vector<graph::BatchRange>& log,
                    rt::Backend* traced = nullptr) {
  std::size_t origin = process_untimed(
      b, {span.begin, std::min(span.begin + kSegmentWarmup * batch, span.end)},
      batch, log);
  const CpuTimes t0 = cpu_times();
  const double stop_s = cl.busy_s + cl.traced_busy_s + budget_s;
  while (cl.busy_s + cl.traced_busy_s < stop_s) {
    if (origin + batch > span.end) {
      ++cl.short_segments;
      break;
    }
    (void)timed_batch(cl, b, traced, {origin, origin + batch});
    log.push_back({origin, origin + batch});
    origin += batch;
  }
  cl.steal = steal_since(t0);
}

/// serve-*: hands out consecutive, reserved stretches of the generated
/// stream. Asking past its end is a sizing bug, so it throws before any
/// index beyond the stream reaches the engine or the backend.
class StreamCursor {
 public:
  StreamCursor(std::size_t begin, std::size_t end) : next_(begin), end_(end) {}

  graph::BatchRange take(std::size_t n) {
    if (n > end_ - next_)
      throw std::logic_error("serve stream too short: need " +
                             std::to_string(n) + " edges at " +
                             std::to_string(next_) + ", it ends at " +
                             std::to_string(end_));
    const graph::BatchRange r{next_, next_ + n};
    next_ += n;
    return r;
  }

 private:
  std::size_t next_, end_;
};

// ---- open loop --------------------------------------------------------------

struct OpenLoop {
  double offered = 0.0;
  std::size_t sent = 0, served = 0, shed = 0, expired = 0, failed = 0;
  /// Per sent request, from its due time, in due-time order; +inf for a
  /// request that was not served (it misses every limit).
  std::vector<double> latency_s;
  std::vector<double> late_s;    ///< generator lateness per request
  std::vector<double> submit_s;  ///< submit() call time per request
  double drain_s = 0.0;
  double wall_s = 0.0;           ///< first due time to drain() return
  double schedule_s = 0.0;       ///< first to last due time
  double attain = 0.0;           ///< share of latency_s within the limit
  double served_ratio = 0.0;     ///< served rate / offered rate
  double p99_s = 0.0;            ///< p99 of latency_s
  double steal = 0.0;            ///< host steal share while it ran
  rt::ServingStats stats;
  std::vector<graph::BatchRange> batch_log;
  graph::VertexStoreStats store_delta;
};

/// Attainment, served ratio and p99 of a finished step, over all of its
/// requests. The served rate divides by the schedule plus the median
/// latency: a backlog that grows through the step lifts the median, a
/// stall near the step's end does not.
void finish_step(OpenLoop& o, double limit_s) {
  o.attain = share_within(o.latency_s, limit_s);
  const double span_s = o.schedule_s + median(o.latency_s);
  o.served_ratio =
      span_s > 0.0 ? static_cast<double>(o.served) / span_s / o.offered : 0.0;
  o.p99_s = percentile(o.latency_s, 0.99);
}

/// One offered rate's parts (one per round) pooled into one step: counts
/// and samples summed, summary recomputed over all of its requests.
OpenLoop pooled(const std::vector<OpenLoop>& parts, double limit_s) {
  OpenLoop into;
  for (const OpenLoop& part : parts) {
    into.offered = part.offered;
    into.sent += part.sent;
    into.served += part.served;
    into.shed += part.shed;
    into.expired += part.expired;
    into.failed += part.failed;
    into.schedule_s += part.schedule_s;
    into.latency_s.insert(into.latency_s.end(), part.latency_s.begin(),
                          part.latency_s.end());
    into.late_s.insert(into.late_s.end(), part.late_s.begin(),
                       part.late_s.end());
  }
  finish_step(into, limit_s);
  return into;
}


/// Median across `parts` of each part's q-th latency percentile (the mean
/// of the two middle ones for an even count).
double median_of_parts(const std::vector<OpenLoop>& parts, double q) {
  std::vector<double> v;
  for (const OpenLoop& p : parts) v.push_back(percentile(p.latency_s, q));
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Clock::time_point at(Clock::time_point t0, double s) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(s));
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// replay-wiki seen as requests: a closed loop is one client that sends
/// its next batch when the previous one returns, so each edge is due when
/// its batch is sent, its latency is that batch's call time, and the only
/// rate it offers is the rate it achieves.
OpenLoop as_requests(const ClosedLoop& cl, double limit_s) {
  OpenLoop o;
  for (std::size_t i = 0; i < cl.batch_s.size(); ++i)
    o.latency_s.insert(o.latency_s.end(), cl.batch_edges[i], cl.batch_s[i]);
  o.sent = o.served = o.latency_s.size();
  o.offered = cl.rate();
  o.schedule_s = static_cast<double>(o.served) / o.offered;
  finish_step(o, limit_s);
  return o;
}

graph::VertexStoreStats operator-(const graph::VertexStoreStats& a,
                                  const graph::VertexStoreStats& b) {
  graph::VertexStoreStats d;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.evictions = a.evictions - b.evictions;
  d.spill_page_writes = a.spill_page_writes - b.spill_page_writes;
  d.spill_page_reads = a.spill_page_reads - b.spill_page_reads;
  d.writeback_invalidations =
      a.writeback_invalidations - b.writeback_invalidations;
  d.prefetch_hits = a.prefetch_hits - b.prefetch_hits;
  d.prefetch_loads = a.prefetch_loads - b.prefetch_loads;
  d.overcommit_frames = a.overcommit_frames - b.overcommit_frames;
  d.io_retries = a.io_retries - b.io_retries;
  d.io_failures = a.io_failures - b.io_failures;
  return d;
}

/// Serve the requests of the reserved stretch `span` of the stream through
/// a fresh ServingEngine at `rate` per second, sent from this thread on
/// schedule, and time each one from when it was due. Returns once
/// everything is served and the engine has stopped.
OpenLoop serve_open_loop(rt::Backend& b, const Spec& spec,
                         graph::BatchRange span, double rate) {
  const std::size_t origin = span.begin;
  const std::size_t n = span.size();
  OpenLoop o;
  o.offered = rate;
  o.sent = n;
  o.late_s.resize(n);
  o.submit_s.resize(n);
  std::vector<double> submit_end(n);
  const graph::VertexStoreStats before = b.store_stats();
  const CpuTimes cpu0 = cpu_times();
  std::vector<rt::OutcomeRecord> outcomes;
  std::vector<double> engine_lat;
  {
    rt::ServingEngine engine(b, spec.sopts);
    const auto t0 = Clock::now() + std::chrono::milliseconds(1);
    for (std::size_t i = 0; i < n; ++i) {
      const double due = static_cast<double>(i) / rate;
      std::this_thread::sleep_until(at(t0, due));
      const auto s0 = Clock::now();
      engine.submit(origin + i);
      const auto s1 = Clock::now();
      o.late_s[i] = seconds_between(t0, s0) - due;
      o.submit_s[i] = seconds_between(s0, s1);
      submit_end[i] = seconds_between(t0, s1);
    }
    const auto d0 = Clock::now();
    engine.drain();
    const auto d1 = Clock::now();
    o.drain_s = seconds_between(d0, d1);
    o.wall_s = seconds_between(t0, d1);
    o.stats = engine.stats();
    o.batch_log = engine.batch_log();
    outcomes = engine.outcome_log();
    engine_lat = engine.request_latency_s();
  }
  o.steal = steal_since(cpu0);
  o.store_delta = b.store_stats() - before;

  // Due-time latency join by stream index: the engine appends a request's
  // kServed outcome and its latency sample in the same completion loop, so
  // the k-th kServed record pairs with the k-th sample. Latency = (submit
  // return - due time) + the engine's latency, which ends at the backend's
  // reported latency_s (lane modes) or at Decode completion (pipelined) —
  // not at the engine's own completion bookkeeping.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> by_index(n, nan);
  std::size_t k = 0;
  for (const auto& rec : outcomes) {
    if (rec.index < origin || rec.index >= origin + n)
      throw std::logic_error("outcome for a request never sent");
    switch (rec.outcome) {
      case rt::RequestOutcome::kServed:
        if (k >= engine_lat.size())
          throw std::logic_error("more kServed outcomes than latencies");
        by_index[rec.index - origin] = engine_lat[k++];
        break;
      case rt::RequestOutcome::kShed: ++o.shed; break;
      case rt::RequestOutcome::kExpired: ++o.expired; break;
      default: ++o.failed; break;
    }
  }
  if (k != engine_lat.size())
    throw std::logic_error("kServed outcomes and latency samples disagree");
  o.served = k;
  o.latency_s.assign(n, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(by_index[i])) continue;
    const double due = static_cast<double>(i) / rate;
    o.latency_s[i] = (submit_end[i] - due) + by_index[i];
  }
  o.schedule_s = static_cast<double>(n) / rate;
  finish_step(o, spec.limit_s);
  return o;
}

// ---- metric tables and reporting --------------------------------------------

const std::vector<MetricName> kEndToEnd = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"replay_eps", "edges/s"},  {"batch_p50_ms", "ms"},
    {"batch_p99_ms", "ms"},     {"lat_p50_ms", "ms"},
    {"lat_p99_ms", "ms"},       {"slo_attain", "share"},
    {"slo_rps", "req/s"},
};

const std::vector<MetricName> kPerLayer = {
    {"tgnn.gnn_compute_ms", "ms"},
    {"tgnn.gnn_compute_share", "share"},
    {"tgnn.memory_update_ms", "ms"},
    {"tgnn.memory_update_share", "share"},
    {"tgnn.neighbor_gather_ms", "ms"},
    {"tgnn.neighbor_gather_share", "share"},
    {"tgnn.decode_ms", "ms"},
    {"tgnn.decode_share", "share"},
    {"tgnn.embeddings_per_edge", "1/edge"},
    {"tgnn.model_build_s", "s"},
    {"kernels.gnn_gflops", "GFLOP/s"},
    {"kernels.gru_gflops", "GFLOP/s"},
    {"kernels.peak_gflops", "GFLOP/s"},
    {"kernels.gnn_of_peak", "share"},
    {"kernels.bytes_per_edge", "B/edge"},
    {"runtime.queue_wait_p50_ms", "ms"},
    {"runtime.queue_wait_p95_ms", "ms"},
    {"runtime.service_p50_ms", "ms"},
    {"runtime.service_p95_ms", "ms"},
    {"runtime.overhead_p50_us", "us"},
    {"runtime.lane_busy_share", "share"},
    {"runtime.peak_parallel", "count"},
    {"runtime.peak_queue_depth", "count"},
    {"runtime.mean_batch", "req"},
    {"runtime.batches", "count"},
    {"runtime.submit_block_p99_us", "us"},
    {"runtime.drain_ms", "ms"},
    {"runtime.fast_forward_s", "s"},
    {"data.generate_s", "s"},
    {"graph.hit_rate", "share"},
    {"graph.misses", "count"},
    {"graph.evictions", "count"},
    {"graph.spill_reads", "count"},
    {"graph.spill_writes", "count"},
    {"graph.writeback_invalidations", "count"},
    {"graph.overcommit_frames", "count"},
    {"graph.io_retries", "count"},
    {"graph.prefetch_effective", "share"},
    {"graph.prefetch_call_us", "us"},
    {"perf.bottleneck_stage", "index"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.late_max_ms", "ms"},
    {"trace.overhead_share", "share"},
    {"trace.stage_coverage", "share"},
};

class Reporter {
 public:
  Reporter(RunResult& r, bool trace)
      : r_(r), table_(trace ? kPerLayer : kEndToEnd) {}

  /// A metric of this mode's table (its unit comes from the table).
  void add(const std::string& name, double value, std::size_t samples = 0) {
    r_.metrics.push_back({name, value, unit_of(name), samples});
  }
  /// A report-only line, not part of the JSON result.
  void note(const std::string& name, double value, const std::string& unit,
            std::size_t samples) {
    r_.metrics.push_back({name, value, unit, samples, true, false});
  }
  /// A tail percentile of one sample set; refused (the run is incorrect)
  /// when fewer than kMinBeyond samples lie beyond it.
  void tail(const std::string& name, const std::vector<double>& v, double q,
            double scale) {
    require_beyond(name, v.size(), q);
    add(name, percentile(v, q) * scale, v.size());
  }
  /// median_of_parts; refused when a part leaves fewer than kMinBeyond
  /// samples beyond the percentile.
  void tail_of_parts(const std::string& name,
                     const std::vector<OpenLoop>& parts, double q,
                     double scale) {
    std::size_t n = 0;
    for (const OpenLoop& p : parts) {
      require_beyond(name, p.latency_s.size(), q);
      n += p.latency_s.size();
    }
    add(name, median_of_parts(parts, q) * scale, n);
  }
  void fact(const std::string& k, const std::string& v) {
    r_.facts.emplace_back(k, v);
  }
  void problem(const std::string& p) { r_.problems.push_back(p); }

  /// Put the JSON metrics in table order. A table metric the workload did
  /// not measure (its layer is bypassed) reads 0.
  void finish() {
    std::vector<Metric> out;
    for (const auto& m : table_) {
      const auto it =
          std::find_if(r_.metrics.begin(), r_.metrics.end(),
                       [&](const Metric& x) { return x.name == m.name; });
      if (it != r_.metrics.end())
        out.push_back(*it);
      else
        out.push_back({m.name, 0.0, m.unit, 0, false, true});
    }
    for (const auto& m : r_.metrics)
      if (!m.in_json) out.push_back(m);
    r_.metrics = std::move(out);
  }

 private:
  void require_beyond(const std::string& name, std::size_t n, double q) {
    if (!supports_percentile(n, q))
      problem(name + ": " + std::to_string(n) + " samples leave fewer than " +
              std::to_string(kMinBeyond) + " beyond the percentile");
  }
  std::string unit_of(const std::string& name) const {
    for (const auto& m : table_)
      if (name == m.name) return m.unit;
    throw std::logic_error("metric '" + name + "' is not in this mode's table");
  }

  RunResult& r_;
  const std::vector<MetricName>& table_;
};

std::string fmt(double v, const char* f = "%.4g") {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

double peak_rss_mb() {
  // VmHWM; each workload runs in its own process.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  std::fclose(f);
  return kb / 1024.0;
}

/// Roofline context: one fp32 affine_into at a large shape on every
/// hardware thread, best of several repetitions.
double measure_peak_gflops() {
  constexpr std::size_t m = 512, k = 512, n = 512;
  tgnn::Tensor x(m, k), w(n, k), b(n), y;
  for (std::size_t i = 0; i < m * k; ++i)
    x.data()[i] = static_cast<float>((i * 7919) % 1000) * 1e-3f - 0.5f;
  for (std::size_t i = 0; i < n * k; ++i)
    w.data()[i] = static_cast<float>((i * 104729) % 1000) * 1e-3f - 0.5f;
  omp_set_num_threads(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  tgnn::kernels::affine_into(x, w, b, y);  // size the output, warm caches
  double best = std::numeric_limits<double>::max();
  for (int rep = 0; rep < 20; ++rep) {
    tgnn::Stopwatch sw;
    tgnn::kernels::affine_into(x, w, b, y);
    best = std::min(best, sw.seconds());
  }
  return 2.0 * static_cast<double>(m * k * n) / best / 1e9;
}

/// Stage, kernel and work metrics from the decorator's batch records.
void add_stage_metrics(Reporter& rep, const std::vector<BatchTiming>& bs,
                       const core::ModelConfig& cfg) {
  static constexpr const char* kName[core::kNumStages] = {
      "tgnn.memory_update", "tgnn.neighbor_gather", "tgnn.gnn_compute",
      "tgnn.decode"};
  std::array<double, core::kNumStages> stage_s{};
  double call_s = 0.0, edges = 0.0, emb = 0.0;
  for (const auto& b : bs) {
    call_s += b.call_s;
    edges += static_cast<double>(b.edges);
    emb += static_cast<double>(b.embeddings);
    for (std::size_t k = 0; k < core::kNumStages; ++k)
      stage_s[k] += b.stage_s[k];
  }
  const std::size_t n = bs.size();
  const double per_batch = 1e3 / std::max(1.0, static_cast<double>(n));
  double stage_sum = 0.0;
  std::size_t bottleneck = 0;
  for (std::size_t k = 0; k < core::kNumStages; ++k) {
    rep.add(std::string(kName[k]) + "_ms", stage_s[k] * per_batch, n);
    rep.add(std::string(kName[k]) + "_share",
            call_s > 0.0 ? stage_s[k] / call_s : 0.0, n);
    stage_sum += stage_s[k];
    if (stage_s[k] > stage_s[bottleneck]) bottleneck = k;
  }
  rep.add("trace.stage_coverage", call_s > 0.0 ? stage_sum / call_s : 0.0, n);
  rep.add("perf.bottleneck_stage", static_cast<double>(bottleneck), n);
  edges = std::max(1.0, edges);
  rep.add("tgnn.embeddings_per_edge", emb / edges, n);
  // Computed, not counted: analytic MACs per embedding (core::analyze)
  // times embeddings produced, over the measured stage time.
  const core::ComplexityReport cx = core::analyze(cfg);
  const double gnn_gflops =
      stage_s[2] > 0.0 ? 2.0 * cx.gnn.macs * emb / stage_s[2] / 1e9 : 0.0;
  const double gru_gflops =
      stage_s[0] > 0.0 ? 2.0 * cx.memory.macs * emb / stage_s[0] / 1e9 : 0.0;
  const double peak = measure_peak_gflops();
  rep.add("kernels.gnn_gflops", gnn_gflops, n);
  rep.add("kernels.gru_gflops", gru_gflops, n);
  rep.add("kernels.peak_gflops", peak, 20);
  rep.add("kernels.gnn_of_peak", peak > 0.0 ? gnn_gflops / peak : 0.0);
  rep.add("kernels.bytes_per_edge",
          core::bytes_per_embedding(cfg) * emb / edges);
}

void add_setup_metrics(Reporter& rep, const SetupTimes& t) {
  rep.add("runtime.fast_forward_s", median(t.fast_forward),
          t.fast_forward.size());
  rep.add("data.generate_s", median(t.generate), t.generate.size());
  rep.add("tgnn.model_build_s", median(t.model_build), t.model_build.size());
}

void add_store_metrics(Reporter& rep, const graph::VertexStoreStats& d,
                       const std::vector<double>& prefetch_calls) {
  auto count = [&](const char* name, std::uint64_t v) {
    rep.add(name, static_cast<double>(v));
  };
  rep.add("graph.hit_rate", d.hit_rate());
  count("graph.misses", d.misses);
  count("graph.evictions", d.evictions);
  count("graph.spill_reads", d.spill_page_reads);
  count("graph.spill_writes", d.spill_page_writes);
  count("graph.writeback_invalidations", d.writeback_invalidations);
  count("graph.overcommit_frames", d.overcommit_frames);
  count("graph.io_retries", d.io_retries);
  // Useful prefetches over attempted ones: a request whose page was
  // already resident did no work.
  const std::uint64_t attempts = d.prefetch_loads + d.prefetch_hits;
  rep.add("graph.prefetch_effective",
          attempts > 0 ? static_cast<double>(d.prefetch_loads) /
                             static_cast<double>(attempts)
                       : 0.0);
  const double mean_us =
      prefetch_calls.empty()
          ? 0.0
          : std::accumulate(prefetch_calls.begin(), prefetch_calls.end(),
                            0.0) /
                static_cast<double>(prefetch_calls.size()) * 1e6;
  rep.add("graph.prefetch_call_us", mean_us, prefetch_calls.size());
}

void add_runtime_metrics(Reporter& rep, const OpenLoop& o,
                         const std::vector<BatchTiming>& bs,
                         std::size_t lanes) {
  const rt::ServingStats& s = o.stats;
  rep.add("runtime.queue_wait_p50_ms", s.p50_queue_wait_s * 1e3,
          s.num_requests);
  rep.add("runtime.queue_wait_p95_ms", s.p95_queue_wait_s * 1e3,
          s.num_requests);
  rep.add("runtime.service_p50_ms", s.p50_service_s * 1e3, s.num_requests);
  rep.add("runtime.service_p95_ms", s.p95_service_s * 1e3, s.num_requests);
  std::vector<double> call_s;
  for (const auto& b : bs) call_s.push_back(b.call_s);
  const double busy = std::accumulate(call_s.begin(), call_s.end(), 0.0);
  rep.add("runtime.overhead_p50_us", (s.p50_service_s - median(call_s)) * 1e6,
          call_s.size());
  rep.add("runtime.lane_busy_share",
          busy / (o.wall_s * static_cast<double>(lanes)), call_s.size());
  rep.add("runtime.peak_parallel",
          static_cast<double>(s.peak_parallel_batches));
  rep.add("runtime.peak_queue_depth", static_cast<double>(s.peak_queue_depth));
  rep.add("runtime.mean_batch", s.mean_batch_size, s.num_batches);
  rep.add("runtime.batches", static_cast<double>(s.num_batches));
  rep.tail("runtime.submit_block_p99_us", o.submit_s, 0.99, 1e6);
  rep.add("runtime.drain_ms", o.drain_s * 1e3, 1);
  rep.tail("loadgen.late_p99_ms", o.late_s, 0.99, 1e3);
  rep.add("loadgen.late_max_ms", percentile(o.late_s, 1.0) * 1e3,
          o.late_s.size());
}

/// Host steal share of each part, as a report line.
template <class Part>
std::string steal_list(const std::vector<Part>& parts) {
  std::string out;
  for (const Part& p : parts)
    out += (out.empty() ? "" : " ") + fmt(p.steal * 100, "%.2f");
  return out + " (% of CPU time)";
}

/// The end-to-end metrics both kinds of workload share, over the quiet
/// parts of the run (quiet_parts). `segs` are the closed-loop segments;
/// `parts` holds each ladder step's open-loop parts, nominal step first.
/// Closed-loop figures pool the kept segments' calls. Open-loop latency
/// percentiles are each kept part's percentile, summarized by the median
/// across the kept parts; shares and rates pool the kept parts.
void add_end_to_end(Reporter& rep, const SetupTimes& st, double peak_rss,
                    const std::vector<ClosedLoop>& segs,
                    const std::vector<std::vector<OpenLoop>>& parts,
                    double limit_s) {
  const std::vector<ClosedLoop> cl_kept = quiet_parts(segs);
  const ClosedLoop cl = merged(cl_kept);
  std::vector<std::vector<OpenLoop>> kept;
  std::vector<LadderStep> ladder;
  for (const auto& step : parts) {
    kept.push_back(quiet_parts(step));
    const OpenLoop s = pooled(kept.back(), limit_s);
    const double p99 = median_of_parts(kept.back(), 0.99);
    ladder.push_back({s.offered, p99, s.served_ratio});
    rep.fact("rate " + fmt(s.offered, "%.0f") + "/s",
             "p99 " + fmt(p99 * 1e3) + " ms (median of " +
                 std::to_string(kept.back().size()) + " of " +
                 std::to_string(step.size()) +
                 " parts; all parts pooled: " +
                 fmt(pooled(step, limit_s).p99_s * 1e3) + " ms), attain " +
                 fmt(s.attain) + ", served/offered " + fmt(s.served_ratio) +
                 ", " + std::to_string(s.latency_s.size()) + " requests");
  }
  rep.fact("host steal, closed loop", steal_list(segs));
  rep.fact("quiet closed-loop segments",
           std::to_string(cl_kept.size()) + " of " +
               std::to_string(segs.size()) + " used");
  const OpenLoop nom = pooled(kept.front(), limit_s);
  rep.add("setup_s", median(st.total), st.total.size());
  rep.add("peak_rss_mb", peak_rss);
  rep.add("replay_eps", cl.rate(), cl.batch_s.size());
  rep.tail("batch_p50_ms", cl.batch_s, 0.5, 1e3);
  rep.tail("batch_p99_ms", cl.batch_s, 0.99, 1e3);
  rep.tail_of_parts("lat_p50_ms", kept.front(), 0.5, 1e3);
  rep.tail_of_parts("lat_p99_ms", kept.front(), 0.99, 1e3);
  rep.add("slo_attain", nom.attain, nom.sent);
  rep.add("slo_rps", slo_rps(ladder, limit_s), ladder.size());
}

void add_fail_frac(Reporter& rep, const RunResult& res) {
  rep.note("fail_frac",
           static_cast<double>(res.failed) /
               static_cast<double>(std::max<std::size_t>(1, res.attempted)),
           "share", res.attempted);
}

void write_spans(Reporter& rep, const SpanRecorder& spans,
                 const RunOptions& opts, const RunResult& res) {
  const std::string path = opts.out_dir + "/trace-" + opts.workload +
                           "-seed" + std::to_string(opts.seed) + ".json";
  auto metadata = opts.provenance;
  metadata.insert(metadata.end(), res.facts.begin(), res.facts.end());
  if (!spans.write_chrome_trace(path, metadata))
    rep.problem("cannot write " + path);
  rep.fact("span file", path);
}

// ---- replay-wiki ------------------------------------------------------------

RunResult run_replay(const Spec& spec, const RunOptions& opts) {
  RunResult res;
  Reporter rep(res, opts.trace);
  auto su = set_up(spec, opts, 0);
  rt::Backend& backend = *su->backend;
  rep.fact("dataset", "wikipedia_like x" + fmt(spec.wiki_scale) + ", " +
                          std::to_string(su->ds.num_nodes()) + " nodes, " +
                          std::to_string(su->ds.num_edges()) + " edges");
  rep.fact("backend", spec.key + ": " + backend.describe());
  rep.fact("load", "closed loop, " + std::to_string(su->batches.size()) +
                       " batches of " + std::to_string(spec.replay_batch) +
                       " edges per pass over the test split, no engine");
  rep.fact("latency limit",
           fmt(spec.limit_s * 1e3) + " ms per edge (its batch's call time)");
  rep.fact("check", "every batch vs the serial per-row engine, |a-b| <= " +
                        fmt(kReplayAtol) + " + " + fmt(kReplayRtol) +
                        "*|ref| per element");
  const double budget_s = kReplayShare * opts.seconds;
  if (!opts.trace) {
    const std::vector<ClosedLoop> segs =
        replay_passes(backend, *su, budget_s, kReplaySegments);
    const ClosedLoop all = merged(segs);
    res.attempted = all.edges;
    res.failed = all.mismatches;
    const double rss = peak_rss_mb();
    add_end_to_end(rep, time_setups(std::move(su), spec, opts, 0), rss, segs,
                   {{as_requests(merged(quiet_parts(segs)), spec.limit_s)}},
                   spec.limit_s);
  } else {
    SpanRecorder spans;
    TraceSink sink(spans);
    {
      const auto traced = wrap(backend, sink);
      const ClosedLoop cl =
          merged(replay_passes(backend, *su, budget_s, 1, traced.get()));
      add_stage_metrics(rep, sink.batches(), su->model->config());
      add_store_metrics(rep, backend.store_stats(), sink.prefetch_calls());
      rep.add("trace.overhead_share", cl.trace_overhead(), cl.batch_s.size());
      res.attempted = cl.edges + cl.traced_edges;
      res.failed = cl.mismatches;
    }
    add_setup_metrics(rep, time_setups(std::move(su), spec, opts, 0));
    write_spans(rep, spans, opts, res);
  }
  if (res.failed > 0)
    rep.problem(std::to_string(res.failed) +
                " batches outside the stated tolerance");
  add_fail_frac(rep, res);
  rep.finish();
  return res;
}

// ---- serve-sparse / serve-skew-oocore ---------------------------------------

RunResult run_serve(const Spec& spec, const RunOptions& opts) {
  RunResult res;
  Reporter rep(res, opts.trace);
  // The untraced run goes through the ladder kRounds times; the traced run
  // serves the nominal step once. A closed-loop segment follows every
  // open-loop part. Each part and segment gets its own reserved stretch of
  // the stream, then the probe batch of the output check.
  const std::size_t rounds = opts.trace ? 1 : kRounds;
  const std::size_t steps_run = opts.trace ? 1 : spec.ladder.size();
  std::vector<std::size_t> part(steps_run);
  part[0] = requests_for(spec.ladder[0], kNominalShare * opts.seconds) / rounds;
  const double step_s = kLadderShare * opts.seconds /
                        static_cast<double>(spec.ladder.size() - 1);
  for (std::size_t k = 1; k < steps_run; ++k)
    part[k] = requests_for(spec.ladder[k], step_s) / rounds;
  // The closed loop's batch: a full one, what the engine forms whenever
  // requests queue up.
  const std::size_t closed_batch = spec.sopts.max_batch;
  const std::size_t segments = rounds * steps_run;
  const double segment_s =
      kServeReplayShare * opts.seconds / static_cast<double>(segments);
  const std::size_t segment_edges =
      closed_batch *
      (kSegmentWarmup +
       static_cast<std::size_t>(std::ceil(
           kServeReplayEdgesPerSecond * segment_s /
           static_cast<double>(closed_batch))));
  const std::size_t serve_edges =
      kWarmupEdges +
      rounds * std::accumulate(part.begin(), part.end(), std::size_t{0}) +
      segments * segment_edges + kProbeEdges;

  auto su = set_up(spec, opts, serve_edges);
  rt::Backend& backend = *su->backend;
  rep.fact("dataset", std::to_string(su->ds.num_nodes()) + " nodes, " +
                          std::to_string(su->ds.num_edges()) + " edges, " +
                          std::to_string(spec.syn.edge_dim) +
                          "-d edge features, user Zipf " +
                          fmt(spec.syn.user_zipf_s) + ", serving from edge " +
                          std::to_string(su->start));
  rep.fact("backend", spec.key + ": " + backend.describe());
  rep.fact("engine",
           (spec.sopts.pipelined
                ? "pipelined, depth " +
                      std::to_string(spec.sopts.pipeline_depth)
                : std::to_string(spec.sopts.workers) + " worker lanes") +
               ", deterministic, max_batch " +
               std::to_string(spec.sopts.max_batch) + ", max_wait " +
               fmt(spec.sopts.max_wait_s * 1e3) + " ms");
  rep.fact("load", "open loop from one generator thread; nominal " +
                       fmt(spec.ladder[0], "%.0f") + " req/s for " +
                       std::to_string(rounds * part[0]) + " requests; " +
                       std::to_string(rounds) +
                       " round(s) through the ladder, each step continuing "
                       "the stream");
  rep.fact("closed loop",
           std::to_string(segments) + " segment(s) of process_batch in " +
               "batches of " + std::to_string(closed_batch) +
               " edges (max_batch), one after each open-loop part, each "
               "with " +
               std::to_string(segment_edges) + " reserved edges");
  rep.fact("latency limit",
           fmt(spec.limit_s * 1e3) +
               " ms from the due time; the engine's part ends at the "
               "backend's latency_s (lanes) or at Decode completion "
               "(pipelined)");
  rep.fact("check", "final memory and a " + std::to_string(kProbeEdges) +
                        "-edge probe batch at the end of the run, "
                        "bit-identical to a serial cpu replay of every "
                        "batch the run processed: each engine's "
                        "batch_log() and each closed-loop batch, in "
                        "stream order");

  StreamCursor stream(su->start, su->ds.num_edges());
  // Every batch the backend under test processed, in stream order.
  std::vector<graph::BatchRange> processed;
  process_untimed(backend, stream.take(kWarmupEdges), closed_batch,
                  processed);
  auto check_at_end = [&] {
    const graph::BatchRange probe = stream.take(kProbeEdges);
    const ServedState got = capture_served(backend, probe);
    return check_served(*su, processed, probe, got, res.problems);
  };
  if (!opts.trace) {
    // The shared machine has slow spells seconds long, so each step's
    // requests are split over kRounds parts spread through the run, and the
    // closed loop is split the same way; the metrics use the quiet parts.
    std::vector<std::vector<OpenLoop>> parts(spec.ladder.size());
    std::vector<ClosedLoop> segs;
    for (std::size_t round = 0; round < rounds; ++round)
      for (std::size_t k = 0; k < steps_run; ++k) {
        const OpenLoop p = serve_open_loop(backend, spec,
                                           stream.take(part[k]),
                                           spec.ladder[k]);
        processed.insert(processed.end(), p.batch_log.begin(),
                         p.batch_log.end());
        parts[k].push_back(p);
        replay_segment(segs.emplace_back(), backend,
                       stream.take(segment_edges), closed_batch, segment_s,
                       processed);
      }
    for (const auto& step : parts)
      for (const OpenLoop& p : step) {
        res.attempted += p.sent;
        res.failed += p.shed + p.expired + p.failed;
      }
    res.failed += check_at_end();
    const double late_p99 = percentile(
        pooled(quiet_parts(parts.front()), spec.limit_s).late_s, 0.99);
    if (late_p99 > kMaxLateShare * spec.limit_s)
      rep.problem("invalid run: generator p99 lateness " +
                  fmt(late_p99 * 1e3) + " ms exceeds " +
                  fmt(kMaxLateShare * 100) + "% of the latency limit");
    rep.fact("closed-loop segments out of edges",
             std::to_string(merged(segs).short_segments) + " of " +
                 std::to_string(segments));
    rep.fact("host steal, nominal parts", steal_list(parts.front()));
    const double rss = peak_rss_mb();
    add_end_to_end(rep, time_setups(std::move(su), spec, opts, serve_edges),
                   rss, segs, parts, spec.limit_s);
  } else {
    SpanRecorder spans;
    TraceSink sink(spans);
    {
      const auto traced = wrap(backend, sink);
      const OpenLoop nom =
          serve_open_loop(*traced, spec, stream.take(part[0]), spec.ladder[0]);
      processed.insert(processed.end(), nom.batch_log.begin(),
                       nom.batch_log.end());
      const std::vector<BatchTiming> batches = sink.batches();
      const std::size_t lanes =
          spec.sopts.pipelined ? core::kNumStages : spec.sopts.workers;
      add_stage_metrics(rep, batches, su->model->config());
      add_runtime_metrics(rep, nom, batches, lanes);
      add_store_metrics(rep, nom.store_delta, sink.prefetch_calls());
      // Decorator overhead: the closed loop over the next stretch of the
      // stream, every other batch traced.
      ClosedLoop cl;
      replay_segment(cl, backend, stream.take(segment_edges), closed_batch,
                     segment_s, processed, traced.get());
      rep.add("trace.overhead_share", cl.trace_overhead(), cl.batch_s.size());
      res.attempted = nom.sent;
      res.failed = nom.shed + nom.expired + nom.failed;
    }
    res.failed += check_at_end();
    add_setup_metrics(rep, time_setups(std::move(su), spec, opts, serve_edges));
    write_spans(rep, spans, opts, res);
  }
  add_fail_frac(rep, res);
  rep.finish();
  return res;
}

}  // namespace

const std::vector<MetricName>& end_to_end_metrics() { return kEndToEnd; }
const std::vector<MetricName>& per_layer_metrics() { return kPerLayer; }

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "replay-wiki", "serve-sparse", "serve-skew-oocore"};
  return names;
}

RunResult run_workload(const RunOptions& opts) {
  const Spec spec = make_spec(opts.workload);
  return spec.kind == Kind::kReplay ? run_replay(spec, opts)
                                    : run_serve(spec, opts);
}

}  // namespace perfbench
