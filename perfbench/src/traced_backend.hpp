// Forwarding decorator that times every call into a runtime Backend from
// outside, in situ: the ServingEngine drives the decorator exactly as it
// would drive the wrapped backend (same lanes, same stage workers, same
// contention), and each process_batch / process_batch_on / begin_batch /
// run_stage / finish_batch / prefetch_rows call becomes a span.
//
// The engine picks its scheduler by dynamic_cast to ConcurrentBackend and
// StagedBackend, so wrap() returns a decorator that implements exactly the
// interfaces the wrapped backend implements — no more, no fewer.
//
// Used only by the traced run; end-to-end metrics come from runs without it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/backend.hpp"
#include "spans.hpp"

namespace perfbench {

/// One completed backend batch as the decorator saw it.
struct BatchTiming {
  std::size_t edges = 0;
  std::size_t embeddings = 0;  ///< unique embedded vertices
  double call_s = 0.0;         ///< Σ backend-call wall time for the batch
  /// Stage times in core::Stage order: timed run_stage calls on the staged
  /// path, the returned PartTimes otherwise (memory, sample, gnn, update).
  std::array<double, tgnn::core::kNumStages> stage_s{};
};

/// What the decorator accumulates besides spans. Thread-safe.
class TraceSink {
 public:
  explicit TraceSink(SpanRecorder& spans) : spans_(spans) {}

  [[nodiscard]] SpanRecorder& spans() { return spans_; }
  void add_batch(const BatchTiming& b);
  void add_prefetch(double seconds);

  [[nodiscard]] std::vector<BatchTiming> batches() const;
  [[nodiscard]] std::vector<double> prefetch_calls() const;

 private:
  SpanRecorder& spans_;
  mutable std::mutex mu_;
  std::vector<BatchTiming> batches_;    // guarded by mu_
  std::vector<double> prefetch_s_;      // guarded by mu_
};

/// Wrap `inner` (which must outlive the result) in the tracing decorator.
std::unique_ptr<tgnn::runtime::Backend> wrap(tgnn::runtime::Backend& inner,
                                             TraceSink& sink);

}  // namespace perfbench
