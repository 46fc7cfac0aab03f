#include "traced_backend.hpp"

#include <algorithm>
#include <limits>
#include <string>

namespace perfbench {

namespace rt = tgnn::runtime;
namespace core = tgnn::core;
namespace graph = tgnn::graph;

void TraceSink::add_batch(const BatchTiming& b) {
  std::lock_guard lk(mu_);
  batches_.push_back(b);
}

void TraceSink::add_prefetch(double seconds) {
  std::lock_guard lk(mu_);
  prefetch_s_.push_back(seconds);
}

std::vector<BatchTiming> TraceSink::batches() const {
  std::lock_guard lk(mu_);
  return batches_;
}

std::vector<double> TraceSink::prefetch_calls() const {
  std::lock_guard lk(mu_);
  return prefetch_s_;
}

namespace {

/// prefetch_rows is issued before the batch is bound to a slot, so its
/// span carries no request index.
constexpr std::uint64_t kNoRequest = std::numeric_limits<std::uint64_t>::max();

constexpr const char* kStageSpan[core::kNumStages] = {
    "stage.memory_update", "stage.neighbor_gather", "stage.gnn_compute",
    "stage.decode"};

/// Unique endpoints of a batch: what the engine embeds when no extras are
/// passed (the staged path hands no BatchResult back to count from).
std::size_t unique_endpoints(const graph::TemporalGraph& g,
                             const graph::BatchRange& r) {
  std::vector<graph::NodeId> v;
  v.reserve(2 * r.size());
  for (std::size_t i = r.begin; i < r.end; ++i) {
    v.push_back(g.edge(i).src);
    v.push_back(g.edge(i).dst);
  }
  std::sort(v.begin(), v.end());
  return static_cast<std::size_t>(std::unique(v.begin(), v.end()) -
                                  v.begin());
}

/// PartTimes buckets in core::Stage order (the engine's own convention:
/// memory -> MemoryUpdate, sample -> NeighborGather, gnn -> GnnCompute,
/// update -> Decode).
std::array<double, core::kNumStages> stage_array(const core::PartTimes& p) {
  return {p.memory, p.sample, p.gnn, p.update};
}

/// The Backend half of the decorator; Iface is Backend or ConcurrentBackend.
template <class Iface>
class ForwardBackend : public Iface {
 public:
  ForwardBackend(rt::Backend& inner, TraceSink& sink)
      : inner_(inner), sink_(sink) {}

  rt::BatchOutput process_batch(
      const graph::BatchRange& r,
      std::span<const graph::NodeId> extras) override {
    return timed("backend.process_batch", r,
                 [&] { return inner_.process_batch(r, extras); });
  }
  void warmup(const graph::BatchRange& range) override {
    inner_.warmup(range);
  }
  void reset() override { inner_.reset(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::string describe() const override {
    return inner_.describe() + " [traced]";
  }
  [[nodiscard]] const tgnn::data::Dataset& dataset() const override {
    return inner_.dataset();
  }
  [[nodiscard]] graph::VertexStoreStats store_stats() const override {
    return inner_.store_stats();
  }
  bool set_precision(tgnn::kernels::Precision p) override {
    return inner_.set_precision(p);
  }
  [[nodiscard]] tgnn::kernels::Precision precision() const override {
    return inner_.precision();
  }
  [[nodiscard]] core::RuntimeState* runtime_state() override {
    return inner_.runtime_state();
  }

 protected:
  template <class Call>
  rt::BatchOutput timed(const char* span, const graph::BatchRange& r,
                        Call&& call) {
    SpanRecorder& rec = sink_.spans();
    const double t0 = rec.now();
    rt::BatchOutput out = call();
    const double t1 = rec.now();
    rec.record(span, r.begin, t0, t1);
    BatchTiming b;
    b.edges = r.size();
    b.embeddings = out.functional.nodes.size();
    b.call_s = t1 - t0;
    b.stage_s = stage_array(out.parts);
    sink_.add_batch(b);
    return out;
  }

  rt::Backend& inner_;
  TraceSink& sink_;
};

class ForwardConcurrent : public ForwardBackend<rt::ConcurrentBackend> {
 public:
  ForwardConcurrent(rt::ConcurrentBackend& inner, TraceSink& sink)
      : ForwardBackend(inner, sink), concurrent_(inner) {}

  [[nodiscard]] std::size_t lanes() const override {
    return concurrent_.lanes();
  }
  rt::BatchOutput process_batch_on(
      std::size_t lane, const graph::BatchRange& r,
      std::span<const graph::NodeId> extras) override {
    return timed("backend.process_batch_on", r, [&] {
      return concurrent_.process_batch_on(lane, r, extras);
    });
  }
  void read_footprint(const graph::BatchRange& r,
                      std::vector<graph::NodeId>& out) const override {
    concurrent_.read_footprint(r, out);
  }

 private:
  rt::ConcurrentBackend& concurrent_;
};

/// The StagedBackend half. A slot is driven by one thread at a time (the
/// engine's contract), so per-slot bookkeeping needs no lock.
class ForwardStaged : public rt::StagedBackend {
 public:
  ForwardStaged(rt::StagedBackend& inner, const tgnn::data::Dataset& ds,
                TraceSink& sink)
      : staged_(inner), ds_(ds), sink_(sink) {}

  void prepare_pipeline(std::size_t slots,
                        std::size_t max_batch_edges) override {
    slots_.assign(slots, {});
    staged_.prepare_pipeline(slots, max_batch_edges);
  }
  [[nodiscard]] std::size_t pipeline_slots() const override {
    return staged_.pipeline_slots();
  }
  void begin_batch(std::size_t slot, const graph::BatchRange& r) override {
    SlotTrace& st = slots_.at(slot);
    st = {};
    st.range = r;
    st.batch_span = sink_.spans().begin("backend.batch", r.begin);
    st.call_s += timed_call("backend.begin_batch", st,
                            [&] { staged_.begin_batch(slot, r); });
  }
  void run_stage(core::Stage s, std::size_t slot) override {
    SlotTrace& st = slots_.at(slot);
    const auto k = static_cast<std::size_t>(s);
    const double d =
        timed_call(kStageSpan[k], st, [&] { staged_.run_stage(s, slot); });
    st.stage_s[k] += d;
    st.call_s += d;
  }
  void finish_batch(std::size_t slot) override {
    SlotTrace& st = slots_.at(slot);
    st.call_s += timed_call("backend.finish_batch", st,
                            [&] { staged_.finish_batch(slot); });
    sink_.spans().end(st.batch_span);
    BatchTiming b;
    b.edges = st.range.size();
    b.embeddings = unique_endpoints(ds_.graph, st.range);
    b.call_s = st.call_s;
    b.stage_s = st.stage_s;
    sink_.add_batch(b);
  }
  void abort_batch(std::size_t slot) override {
    SlotTrace& st = slots_.at(slot);
    timed_call("backend.abort_batch", st, [&] { staged_.abort_batch(slot); });
    sink_.spans().end(st.batch_span);
  }
  void read_footprint(const graph::BatchRange& r,
                      std::vector<graph::NodeId>& out) const override {
    staged_.read_footprint(r, out);
  }
  [[nodiscard]] bool race_free_reads() const override {
    return staged_.race_free_reads();
  }
  void prefetch_rows(std::span<const graph::NodeId> nodes) override {
    SpanRecorder& rec = sink_.spans();
    const double t0 = rec.now();
    staged_.prefetch_rows(nodes);
    const double t1 = rec.now();
    rec.record("backend.prefetch_rows", kNoRequest, t0, t1);
    sink_.add_prefetch(t1 - t0);
  }

 private:
  struct SlotTrace {
    graph::BatchRange range;
    std::int64_t batch_span = kNoParent;
    double call_s = 0.0;
    std::array<double, core::kNumStages> stage_s{};
  };

  template <class Call>
  double timed_call(const char* span, const SlotTrace& st, Call&& call) {
    SpanRecorder& rec = sink_.spans();
    const double t0 = rec.now();
    call();
    const double t1 = rec.now();
    rec.record(span, st.range.begin, t0, t1, st.batch_span);
    return t1 - t0;
  }

  rt::StagedBackend& staged_;
  const tgnn::data::Dataset& ds_;
  TraceSink& sink_;
  std::vector<SlotTrace> slots_;
};

class TracedPlain final : public ForwardBackend<rt::Backend> {
 public:
  using ForwardBackend::ForwardBackend;
};

class TracedStaged final : public ForwardBackend<rt::Backend>,
                           public ForwardStaged {
 public:
  TracedStaged(rt::Backend& inner, rt::StagedBackend& staged,
               TraceSink& sink)
      : ForwardBackend(inner, sink),
        ForwardStaged(staged, inner.dataset(), sink) {}
};

class TracedConcurrent final : public ForwardConcurrent {
 public:
  using ForwardConcurrent::ForwardConcurrent;
};

class TracedConcurrentStaged final : public ForwardConcurrent,
                                     public ForwardStaged {
 public:
  TracedConcurrentStaged(rt::ConcurrentBackend& inner,
                         rt::StagedBackend& staged, TraceSink& sink)
      : ForwardConcurrent(inner, sink),
        ForwardStaged(staged, inner.dataset(), sink) {}
};

}  // namespace

std::unique_ptr<rt::Backend> wrap(rt::Backend& inner, TraceSink& sink) {
  auto* concurrent = dynamic_cast<rt::ConcurrentBackend*>(&inner);
  auto* staged = dynamic_cast<rt::StagedBackend*>(&inner);
  if (concurrent != nullptr && staged != nullptr)
    return std::make_unique<TracedConcurrentStaged>(*concurrent, *staged,
                                                    sink);
  if (concurrent != nullptr)
    return std::make_unique<TracedConcurrent>(*concurrent, sink);
  if (staged != nullptr)
    return std::make_unique<TracedStaged>(inner, *staged, sink);
  return std::make_unique<TracedPlain>(inner, sink);
}

}  // namespace perfbench
