#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Spans of the traced run. Every request is one tree: its root is the
// client round trip, and its children are the layers' public functions
// replayed in-process on the request's exact block (the layers cannot be
// timed inside the server from outside). A layer's self time is its
// span's duration minus its children's; the root's self time is the
// residual — the part of the round trip no replayed layer accounts for
// (socket I/O, wakeups, framing, the handler's locks and counters).

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "server/protocol.h"

namespace perfbench {

/// Rounds per epoch replayed with tracing on, after the untraced half of
/// the epoch; kept small because every span stays in memory.
constexpr size_t kTracedRounds = 2;

enum class Layer : uint8_t {
  kRoundTrip,
  kRequestCodec,
  kReplyCodec,
  kServedEstimate,
  kServedIngest,
  kSketchEstimate,
  kSketchUpdate,
  kKernelHash,
  kKernelMinGather,
  kKernelScatter,
  kBundleEstimate,
  kFeaturize,
  kPredict,
  kAccumulate,
  kCount,
};

const char* LayerName(Layer layer);

struct SpanRecord {
  uint64_t request = 0;
  int32_t parent = -1;  // Index in the same tracer; -1 for the root.
  Layer layer = Layer::kRoundTrip;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t units = 0;  // Keys, items, misses or rows the span processed.
};

/// Spans of one thread, kept in memory until the run ends.
class Tracer {
 public:
  explicit Tracer(uint64_t request_base) : next_request_(request_base) {}

  /// Starts a request tree from its measured round trip; returns the
  /// root's index.
  int32_t Root(const RoundTrip& round_trip, uint64_t units) {
    current_request_ = next_request_++;
    return Record(Layer::kRoundTrip, -1, round_trip.start_ns,
                  round_trip.end_ns, units);
  }

  int32_t Record(Layer layer, int32_t parent, int64_t start_ns,
                 int64_t end_ns, uint64_t units) {
    spans_.push_back(
        {current_request_, parent, layer, start_ns, end_ns, units});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  /// Times fn() as one span.
  template <typename Fn>
  int32_t Time(Layer layer, int32_t parent, uint64_t units, Fn&& fn) {
    const int64_t start = NowNs();
    fn();
    return Record(layer, parent, start, NowNs(), units);
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  uint64_t next_request_;
  uint64_t current_request_ = 0;
  std::vector<SpanRecord> spans_;
};

/// Replays of the wire codec: the client's encode plus the server's
/// decode of a request, and the server's encode plus the client's decode
/// of its reply. Each returns false when the round trip through the
/// codec does not reproduce its input.
struct CodecScratch {
  std::vector<uint8_t> frame;
  std::vector<uint64_t> keys;
  std::vector<double> estimates;
};
bool ReplayRequestCodec(Tracer& tracer, int32_t root,
                        opthash::server::MessageType type,
                        Span<const uint64_t> keys, CodecScratch& scratch);
bool ReplayEstimatesCodec(Tracer& tracer, int32_t root,
                          const std::vector<double>& answers,
                          CodecScratch& scratch);
bool ReplayAckCodec(Tracer& tracer, int32_t root, uint64_t value,
                    CodecScratch& scratch);

/// Per-layer numbers that do not come from request spans.
struct LayerExtras {
  // Server-side handler latency from StatsNow(), one value per epoch.
  std::vector<double> handler_p50_us;
  std::vector<double> handler_p99_us;
  double table_hit_ratio = 0.0;
  // Set-up phases (medians over the run's set-ups).
  double prefix_featurize_s = 0.0;
  double solve_s = 0.0;
  double fit_s = 0.0;
  double bundle_save_s = 0.0;
  double bundle_open_s = 0.0;
  double server_start_s = 0.0;
  // QueryRate() of the untraced and the traced rounds of the same run.
  double untraced_query_rate = 0.0;
  double traced_query_rate = 0.0;
};

/// The tail of every traced run: builds and prints the ledger (failing
/// the report when its check fails), adds every per-layer metric (a layer
/// the workload bypasses reads 0) and writes the spans.
void ReportTracedRun(const std::vector<const Tracer*>& tracers,
                     const LayerExtras& extras, const Options& options,
                     Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
