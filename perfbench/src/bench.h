#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared plumbing of the benchmark driver: options, the metric report
// and its JSON result line, CPU pinning, the client connection wrapper
// that times and counts every request, and summary statistics.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "stream/sharded_ingest.h"

namespace perfbench {

using opthash::Span;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Reduced sizes for the smoke test; never used for measurements.
  bool smoke = false;
  // Perturbs the in-process reference so the correctness gate must trip.
  bool corrupt_reference = false;
  // Directory for the Unix socket and the saved model bundle.
  std::string work_dir = ".";
  // Where the traced run writes its spans (CSV) at exit.
  std::string trace_file;
  // Source revision of the measured code (git sha or tree digest).
  std::string source_id = "unknown";
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Picks `count` CPUs from the allowed set (the highest-numbered ones,
/// away from CPU 0's interrupt load) and pins the calling thread to all
/// of them; threads it starts afterwards inherit the set. Returns the
/// chosen CPUs (fewer when the machine has fewer).
std::vector<int> PinProcess(size_t count);
/// Pins the calling thread to one CPU, or to a set of CPUs.
void PinThread(int cpu);
void PinThread(const std::vector<int>& cpus);

/// Ingest on the calling thread, as every daemon here is configured: one
/// loop thread per connection and nothing else competing for the CPUs.
inline opthash::stream::ShardedIngestConfig SequentialIngest() {
  opthash::stream::ShardedIngestConfig config;
  config.num_threads = 1;
  return config;
}

/// The metrics, request counts and correctness verdict of one run; prints
/// the human-readable lines and the final JSON result line.
class Report {
 public:
  explicit Report(const Options& options) : options_(options) {}

  void Add(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line);
  /// Records a failed operation (a failed request or a gate mismatch)
  /// and marks the run incorrect.
  void Fail(const std::string& why);
  void CountAttempted(uint64_t requests) { attempted_ += requests; }

  bool correct() const { return failed_ == 0; }
  uint64_t attempted() const { return attempted_; }

  /// Records the pinned CPUs and starts watching the host: the steal and
  /// iowait time of the run come from /proc/stat at this call and when
  /// the fingerprint is made.
  void SetPinnedCpus(const std::vector<int>& cpus);
  /// Times two short fixed loops on each pinned CPU (at every epoch
  /// boundary): their speed shows which state a shared host was in.
  void CalibrateHost();
  /// Prints the fingerprint, every metric, and the JSON line last.
  void Print() const;
  std::string Fingerprint() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  // Jiffies of one /proc/stat line: total, iowait, steal.
  struct CpuTimes {
    uint64_t total = 0;
    uint64_t iowait = 0;
    uint64_t steal = 0;
  };
  // The whole machine, then the pinned CPUs summed.
  static std::vector<CpuTimes> ReadCpuTimes(const std::vector<int>& cpus);
  std::string HostState() const;

  const Options& options_;
  std::vector<Metric> metrics_;
  std::vector<int> cpus_;
  std::vector<CpuTimes> cpu_times_begin_;
  // Per iteration or word, every calibration.
  std::vector<double> chain_ns_;
  std::vector<double> stream_ns_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// One request's client-observed round trip.
struct RoundTrip {
  bool ok = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// A protocol client that counts what it sends (the numbers the server's
/// StatsNow() must agree with) and times every request.
class Connection {
 public:
  static opthash::Result<Connection> Open(const std::string& target);

  RoundTrip Query(Span<const uint64_t> keys, std::vector<double>& out);
  RoundTrip Ingest(Span<const uint64_t> keys);

  uint64_t query_requests = 0;
  uint64_t query_keys = 0;
  uint64_t ingest_requests = 0;
  uint64_t ingest_items = 0;
  uint64_t failed = 0;
  uint64_t last_ack = 0;  // Server's items ingested after the last ingest.
  std::string last_error;

 private:
  explicit Connection(opthash::server::Client client)
      : client_(std::move(client)) {}
  opthash::server::Client client_;
};

/// Requests per p99 batch: a batch's p99 has 10 samples beyond it. Short
/// batches give more of them, so the interquartile mean can drop the few
/// batches a burst of host stalls (steal time) lands in.
constexpr size_t kLatencyBatch = 1000;
/// Requests per p50 batch. A shared host alternates between two speeds
/// over fractions of a second; a short batch's p50 lands on one of the
/// two levels, so the mean over batches follows the share of time at each
/// level instead of jumping between levels the way a long batch's p50
/// (or an interquartile mean over batches) does.
constexpr size_t kMedianBatch = 100;
static_assert(kLatencyBatch % kMedianBatch == 0, "p50 batches tile p99's");

/// Latencies of one request kind on one connection, folded into the p99
/// of each batch of kLatencyBatch consecutive requests and the p50 of each
/// batch of kMedianBatch as the batch fills, so the memory kept does not
/// grow with the request count.
class LatencyBatches {
 public:
  void Add(double micros);
  /// The q-th percentile (0.5 or 0.99) of each full batch; of the partial
  /// batch when no p99 batch has filled yet.
  std::vector<double> Batches(double q) const;
  uint64_t samples() const { return samples_; }

 private:
  std::vector<double> pending_;
  std::vector<double> p50_;
  std::vector<double> p99_;
  uint64_t samples_ = 0;
};

/// Timed requests of one connection, over a whole run.
class Traffic {
 public:
  void AddQuery(const RoundTrip& rt, size_t keys);
  void AddIngest(const RoundTrip& rt, size_t items);
  /// Keys (items) answered per second of query (ingest) round-trip time.
  double query_rate() const;
  double ingest_rate() const;

  LatencyBatches query_us;
  LatencyBatches ingest_us;

 private:
  uint64_t query_keys_ = 0;
  uint64_t ingest_items_ = 0;
  int64_t query_ns_ = 0;
  int64_t ingest_ns_ = 0;
};

/// Query keys per second of round-trip time, summed over concurrent
/// connections.
double QueryRate(const std::vector<const Traffic*>& connections);

/// The §7.4 error metrics over (estimate, truth) pairs of distinct keys.
struct ErrorTally {
  double abs_sum = 0.0;
  double weighted_abs_sum = 0.0;
  double truth_sum = 0.0;
  uint64_t count = 0;

  void Add(double estimate, double truth) {
    const double error = estimate > truth ? estimate - truth : truth - estimate;
    abs_sum += error;
    weighted_abs_sum += truth * error;
    truth_sum += truth;
    ++count;
  }
  double Average() const { return count ? abs_sum / count : 0.0; }
  double Expected() const {
    return truth_sum > 0 ? weighted_abs_sum / truth_sum : 0.0;
  }
};

/// Mean of the middle half of the values: drops the few p99 batches a
/// burst of host stalls lands in.
double InterquartileMean(std::vector<double> values);

/// Reports the end-to-end latency/throughput metrics of a run: rates are
/// work over round-trip time of the whole run, p50 the mean over batches,
/// p99 the interquartile mean over batches. Ingest metrics come from
/// `ingest` (cms_wide has no ingest in its timed traffic and passes its
/// set-up preloads).
void AddServingMetrics(const std::vector<const Traffic*>& query,
                       const std::vector<const Traffic*>& ingest,
                       Report& report);

/// Heap memory in use (allocated and not yet freed, over every allocator
/// arena and mmapped block) in MB.
double HeapInUseMb();

/// Ids of this process's threads.
std::vector<int> ThreadIds();
/// Voluntary context switches of one thread of this process so far.
uint64_t VoluntarySwitches(int tid);
/// Pins one thread of this process (by id) to one CPU.
bool PinTask(int tid, int cpu);

/// End of an epoch's traffic, the correctness gate: the probe set is
/// queried over `connections[0]` and must equal `reference`; the replayed
/// layers must have agreed (`replay_mismatches` is 0); the server's
/// counters must equal the clients'. Returns the server's stats.
opthash::server::ServerStatsSnapshot CloseEpoch(
    opthash::server::Server& server,
    const std::vector<Connection*>& connections, Span<const uint64_t> probe,
    std::vector<double> reference, uint64_t replay_mismatches,
    const Options& options, Report& report);

/// Pointers to each element, for the functions that take several.
template <typename T>
std::vector<const T*> Pointers(const std::vector<T>& values) {
  std::vector<const T*> out;
  for (const T& value : values) out.push_back(&value);
  return out;
}

/// Runs `round` repeatedly until `seconds` have passed and at least
/// `min_rounds` rounds ran, or until a round returns false.
template <typename Fn>
void RunRounds(double seconds, size_t min_rounds, Fn&& round) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (size_t rounds = 0; rounds < min_rounds || NowNs() < deadline;
       ++rounds) {
    if (!round()) return;
  }
}

/// cms_wide and cms_mixed.
int RunCms(const Options& options, Report& report);
int RunLearnQueryLog(const Options& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
