// The count-min workloads. Both serve a width 2^16, depth 4 count-min
// sketch preloaded over the wire during set-up and query it with
// Zipf(1.05) keys from a 1M-key universe:
//   cms_wide  — one Unix connection, one event loop, one pinned CPU,
//               closed-loop 512-key queries (the kernel/sketch/adapter
//               path; ingest is exercised only by the set-up preload);
//   cms_mixed — two TCP loopback connections, two loops, two pinned
//               CPUs, each sending closed-loop 16-key queries plus one
//               4096-item ingest every 64 queries (the per-request tax
//               and readers beside an exclusive writer).

#include <algorithm>
#include <atomic>
#include <memory>
#include <shared_mutex>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "common/random.h"
#include "server/served_model.h"
#include "server/server.h"
#include "sketch/count_min_sketch.h"
#include "sketch/kernels/simd_dispatch.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace server = opthash::server;
namespace kernels = opthash::sketch::kernels;

struct CmsParams {
  size_t width = 1 << 16;
  size_t depth = 4;
  size_t universe = 1'000'000;
  double zipf = 1.05;
  size_t preload_items = 4'000'000;
  // Preload blocks are smaller than the 4096-item ingests of cms_mixed so
  // cms_wide's ingest metrics, which come from the preloads, rest on
  // enough requests.
  size_t preload_block = 1024;
  size_t ingest_block = 4096;
  size_t setups = 5;
  size_t warmup_requests = 400;
  // cms_wide: one round = wide_requests queries of wide_batch keys.
  size_t wide_batch = 512;
  size_t wide_requests = 4096;
  // cms_mixed, per connection and round: mixed_ingests ingests, one after
  // every mixed_ingest_every queries of mixed_batch keys.
  size_t mixed_batch = 16;
  size_t mixed_ingest_every = 64;
  size_t mixed_ingests = 32;
  size_t probe_keys = 4096;
};

CmsParams ParamsFor(const Options& options) {
  CmsParams p;
  if (options.smoke) {
    p.universe = 20'000;
    p.preload_items = 100'000;
    p.setups = 2;
    p.warmup_requests = 10;
    p.wide_requests = 64;
    p.mixed_ingests = 4;
    p.probe_keys = 512;
  }
  return p;
}

std::vector<uint64_t> ZipfKeys(const opthash::ZipfSampler& sampler,
                               opthash::Rng& rng, size_t count) {
  std::vector<uint64_t> keys(count);
  for (uint64_t& key : keys) key = sampler.Sample(rng);
  return keys;
}

std::vector<uint64_t> Distinct(std::vector<uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// The head of the universe plus keys spread over its tail.
std::vector<uint64_t> ProbeKeys(const CmsParams& p) {
  std::vector<uint64_t> probe;
  for (uint64_t key = 1; key <= p.probe_keys / 2; ++key) probe.push_back(key);
  const uint64_t stride = p.universe / (p.probe_keys / 2);
  for (uint64_t key = p.probe_keys / 2 + 1; probe.size() < p.probe_keys;
       key += stride) {
    probe.push_back(key);
  }
  return probe;
}

// The sketch's hash seed and the preloaded stream's seed are fixed: both
// are part of the served dataset, not of the traffic.
constexpr uint64_t kSketchSeed = 7;
constexpr uint64_t kDatasetSeed = 2022;

server::FreshSketchSpec SketchSpec(const CmsParams& p) {
  server::FreshSketchSpec spec;
  spec.kind = "cms";
  spec.width = p.width;
  spec.depth = p.depth;
  spec.seed = kSketchSeed;
  return spec;
}

// The in-process reference sketch (the correctness gate's answer key)
// plus the per-layer replicas the traced run times: a served-model
// adapter and a bare kernel table, all holding the server's state.
class CmsLayers {
 public:
  explicit CmsLayers(const CmsParams& p)
      : width_(p.width),
        depth_(p.depth),
        reference_(p.width, p.depth, kSketchSeed),
        table_(p.width * p.depth, 0) {
    auto replica = server::CreateServedSketch(SketchSpec(p));
    replica_ = std::move(replica).value();
    // The sketch draws its level hashes from Rng(seed) in level order.
    opthash::Rng rng(kSketchSeed);
    for (size_t level = 0; level < depth_; ++level) {
      params_.push_back(kernels::HashKernelParams::From(
          opthash::hashing::LinearHash(width_, rng)));
    }
  }

  struct Scratch {
    CodecScratch codec;
    std::unique_ptr<server::ServedModel::QueryContext> context;
    std::vector<double> answers;
    std::vector<uint64_t> raw;
    std::vector<uint64_t> idx;
    std::vector<uint64_t> mins;
  };

  Scratch NewScratch() const {
    Scratch scratch;
    scratch.context = replica_->NewQueryContext();
    return scratch;
  }

  // Untimed: brings every copy up to date with arrivals the server got.
  void Feed(Span<const uint64_t> keys) {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    reference_.UpdateBatch(keys);
    if (!replica_->Ingest(keys, SequentialIngest()).ok()) ++mismatches_;
    std::vector<uint64_t> idx(keys.size());
    const kernels::KernelOps& ops = kernels::ActiveKernels();
    for (size_t level = 0; level < depth_; ++level) {
      ops.hash_buckets(params_[level], keys.data(), keys.size(), idx.data());
      ops.scatter_add_u64(table_.data() + level * width_, idx.data(),
                          idx.size());
    }
  }

  std::vector<double> Reference(Span<const uint64_t> keys) const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    std::vector<uint64_t> raw(keys.size());
    reference_.EstimateBatch(keys, Span<uint64_t>(raw.data(), raw.size()));
    return std::vector<double>(raw.begin(), raw.end());
  }

  // `served` is compared with the replicas when no other connection can
  // have changed the sketch between the server's answer and the replay.
  void ReplayQuery(Tracer& tracer, int32_t root, Span<const uint64_t> keys,
                   const std::vector<double>& served, bool compare_served,
                   Scratch& s) {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const size_t n = keys.size();
    bool ok = ReplayRequestCodec(tracer, root, server::MessageType::kQuery,
                                 keys, s.codec);
    s.answers.resize(n);
    const int32_t adapter =
        tracer.Time(Layer::kServedEstimate, root, n, [&] {
          replica_->EstimateBatch(*s.context, keys,
                                  Span<double>(s.answers.data(), n));
        });
    ok = ok && (!compare_served || s.answers == served);
    s.raw.resize(n);
    const int32_t sketch = tracer.Time(Layer::kSketchEstimate, adapter, n, [&] {
      reference_.EstimateBatch(keys, Span<uint64_t>(s.raw.data(), n));
    });
    const kernels::KernelOps& ops = kernels::ActiveKernels();
    s.idx.resize(depth_ * n);
    tracer.Time(Layer::kKernelHash, sketch, n, [&] {
      for (size_t level = 0; level < depth_; ++level) {
        ops.hash_buckets(params_[level], keys.data(), n,
                         s.idx.data() + level * n);
      }
    });
    s.mins.resize(n);
    tracer.Time(Layer::kKernelMinGather, sketch, n, [&] {
      std::fill(s.mins.begin(), s.mins.end(), UINT64_MAX);
      for (size_t level = 0; level < depth_; ++level) {
        ops.min_gather_u64(table_.data() + level * width_,
                           s.idx.data() + level * n, n, s.mins.data());
      }
    });
    ok = ok && s.mins == s.raw &&
         std::equal(s.raw.begin(), s.raw.end(), s.answers.begin());
    ok = ReplayEstimatesCodec(tracer, root, served, s.codec) && ok;
    if (!ok) ++mismatches_;
  }

  void ReplayIngest(Tracer& tracer, int32_t root, Span<const uint64_t> keys,
                    uint64_t acked, Scratch& s) {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    const size_t n = keys.size();
    bool ok = ReplayRequestCodec(tracer, root, server::MessageType::kIngest,
                                 keys, s.codec);
    const int32_t adapter = tracer.Time(Layer::kServedIngest, root, n, [&] {
      ok = replica_->Ingest(keys, SequentialIngest()).ok() && ok;
    });
    const int32_t sketch = tracer.Time(Layer::kSketchUpdate, adapter, n,
                                       [&] { reference_.UpdateBatch(keys); });
    const kernels::KernelOps& ops = kernels::ActiveKernels();
    s.idx.resize(depth_ * n);
    tracer.Time(Layer::kKernelHash, sketch, n, [&] {
      for (size_t level = 0; level < depth_; ++level) {
        ops.hash_buckets(params_[level], keys.data(), n,
                         s.idx.data() + level * n);
      }
    });
    tracer.Time(Layer::kKernelScatter, sketch, n, [&] {
      for (size_t level = 0; level < depth_; ++level) {
        ops.scatter_add_u64(table_.data() + level * width_,
                            s.idx.data() + level * n, n);
      }
    });
    ok = ReplayAckCodec(tracer, root, acked, s.codec) && ok;
    if (!ok) ++mismatches_;
  }

  uint64_t mismatches() const { return mismatches_.load(); }

 private:
  size_t width_;
  size_t depth_;
  mutable std::shared_mutex mutex_;
  opthash::sketch::CountMinSketch reference_;
  std::unique_ptr<server::ServedModel> replica_;
  std::vector<kernels::HashKernelParams> params_;
  std::vector<uint64_t> table_;  // depth x width, row-major.
  std::atomic<uint64_t> mismatches_{0};
};

// What distinguishes the two count-min workloads.
struct Shape {
  bool tcp;
  size_t connections;
  size_t batch;              // Keys per query.
  size_t queries_per_round;  // Per connection.
  size_t ingest_every;       // 0: no ingest in the timed rounds.
};

Shape ShapeFor(const Options& options, const CmsParams& p) {
  if (options.workload == "cms_wide") {
    return {false, 1, p.wide_batch, p.wide_requests, 0};
  }
  return {true, 2, p.mixed_batch, p.mixed_ingests * p.mixed_ingest_every,
          p.mixed_ingest_every};
}

// One in-process daemon plus its client connections.
struct Daemon {
  std::unique_ptr<server::Server> server;
  std::vector<Connection> connections;
};

// Pins the event loop serving each connection to that connection's CPU.
// The loop serving connection c is the server thread woken most often by
// a burst of queries on c alone: the other server threads (the accept
// loop, the other event loops) wake only on their 100 ms poll timeout.
void PinLoops(const std::vector<int>& server_threads,
              const std::vector<int>& cpus, Span<const uint64_t> keys,
              Daemon& daemon, bool note, Report& report) {
  constexpr size_t kBurst = 64;
  std::vector<double> out;
  for (size_t c = 0; c < daemon.connections.size(); ++c) {
    std::vector<uint64_t> switches;
    for (int tid : server_threads) switches.push_back(VoluntarySwitches(tid));
    for (size_t r = 0; r < kBurst; ++r) daemon.connections[c].Query(keys, out);
    size_t loop = 0;
    uint64_t most = 0;
    uint64_t second = 0;
    for (size_t t = 0; t < server_threads.size(); ++t) {
      const uint64_t woken =
          VoluntarySwitches(server_threads[t]) - switches[t];
      if (woken > most) {
        second = most;
        most = woken;
        loop = t;
      } else {
        second = std::max(second, woken);
      }
    }
    const int cpu = cpus[c % cpus.size()];
    if (most < kBurst / 8 || most <= 2 * second ||
        !PinTask(server_threads[loop], cpu)) {
      report.Note("pinning: the loop of connection " + std::to_string(c) +
                  " was not found; it is left unpinned");
    } else if (note) {
      report.Note("pinning: connection " + std::to_string(c) +
                  " and its loop (thread " +
                  std::to_string(server_threads[loop]) + ") on CPU " +
                  std::to_string(cpu));
    }
  }
}

// Set-up: create the sketch, start the daemon, connect, preload over
// connection 0. Returns false (with the failure reported) on error.
bool SetUp(const CmsParams& p, const Shape& shape, const Options& options,
           const std::vector<int>& cpus, const std::vector<uint64_t>& preload,
           Daemon& daemon, Traffic& preload_traffic, double& setup_s,
           double& start_s, bool note_pinning, Report& report) {
  const int64_t begin = NowNs();
  const std::vector<int> threads_before = ThreadIds();
  auto model = server::CreateServedSketch(SketchSpec(p));
  if (!model.ok()) {
    report.Fail("create sketch: " + model.status().ToString());
    return false;
  }
  server::ServerConfig config;
  if (shape.tcp) {
    config.listen_address = "127.0.0.1:0";
  } else {
    config.socket_path = options.work_dir + "/cms-" +
                         std::to_string(::getpid()) + ".sock";
  }
  config.event_threads = shape.connections;
  config.ingest = SequentialIngest();
  daemon.server =
      std::make_unique<server::Server>(config, std::move(model).value());
  const int64_t start_begin = NowNs();
  const opthash::Status started = daemon.server->Start();
  start_s = static_cast<double>(NowNs() - start_begin) / 1e9;
  if (!started.ok()) {
    report.Fail("start server: " + started.ToString());
    return false;
  }
  const std::string target =
      shape.tcp ? "127.0.0.1:" + std::to_string(daemon.server->tcp_port())
                : config.socket_path;
  for (size_t c = 0; c < shape.connections; ++c) {
    auto connection = Connection::Open(target);
    if (!connection.ok()) {
      report.Fail("connect: " + connection.status().ToString());
      return false;
    }
    daemon.connections.push_back(std::move(connection).value());
  }
  // From here on each client/loop pair shares one CPU; the loader is
  // connection 0's client.
  const bool pin_pairs = cpus.size() > 1;
  if (pin_pairs) {
    std::vector<int> server_threads;
    for (int tid : ThreadIds()) {
      if (!std::binary_search(threads_before.begin(), threads_before.end(),
                              tid)) {
        server_threads.push_back(tid);
      }
    }
    PinLoops(server_threads, cpus, Span<const uint64_t>(preload.data(), 16),
             daemon, note_pinning, report);
    PinThread(cpus[0]);
  }
  Connection& loader = daemon.connections[0];
  for (size_t base = 0; base < preload.size(); base += p.preload_block) {
    const size_t n = std::min(p.preload_block, preload.size() - base);
    const RoundTrip rt =
        loader.Ingest(Span<const uint64_t>(&preload[base], n));
    if (!rt.ok) {
      report.CountAttempted(loader.query_requests + loader.ingest_requests);
      report.Fail("preload: " + loader.last_error);
      return false;
    }
    preload_traffic.AddIngest(rt, n);
  }
  setup_s = static_cast<double>(NowNs() - begin) / 1e9;
  if (pin_pairs) PinThread(cpus);
  return true;
}

}  // namespace

int RunCms(const Options& options, Report& report) {
  const CmsParams p = ParamsFor(options);
  const Shape shape = ShapeFor(options, p);
  const std::vector<int> cpus = PinProcess(shape.connections);
  report.SetPinnedCpus(cpus);
  opthash::ZipfSampler sampler(p.universe, p.zipf);

  // The preloaded stream is a fixed dataset, so the served sketch and its
  // error metrics are the same in every run; the seed draws the traffic.
  opthash::Rng dataset_rng(kDatasetSeed);
  const std::vector<uint64_t> preload =
      ZipfKeys(sampler, dataset_rng, p.preload_items);
  std::vector<uint32_t> exact(p.universe + 1, 0);
  for (uint64_t key : preload) ++exact[key];
  const std::vector<uint64_t> dataset_keys = Distinct(preload);
  const std::vector<uint64_t> probe = ProbeKeys(p);
  opthash::Rng rng(options.seed);
  std::vector<std::vector<uint64_t>> queries;
  std::vector<std::vector<uint64_t>> ingests;
  for (size_t c = 0; c < shape.connections; ++c) {
    queries.push_back(
        ZipfKeys(sampler, rng, shape.queries_per_round * shape.batch));
    const size_t per_round =
        shape.ingest_every ? shape.queries_per_round / shape.ingest_every : 0;
    ingests.push_back(ZipfKeys(sampler, rng, per_round * p.ingest_block));
  }

  std::vector<Tracer> tracers;
  for (size_t c = 0; c < shape.connections; ++c) {
    tracers.emplace_back(static_cast<uint64_t>(c) << 40);
  }
  std::vector<Traffic> traffic(shape.connections);
  std::vector<Traffic> traced_traffic(shape.connections);
  Traffic preload_traffic;
  std::vector<double> setup_s;
  std::vector<double> start_s;
  std::vector<double> server_mb;
  LayerExtras extras;
  ErrorTally tally;

  // Each epoch sets the daemon up afresh and measures it for its share of
  // the run, so set-up, preload and traffic samples spread over the run.
  const double epoch_seconds =
      options.seconds / static_cast<double>(p.setups);
  const double untraced_seconds =
      options.trace ? epoch_seconds / 2 : epoch_seconds;
  for (size_t epoch = 0; epoch < p.setups && report.correct(); ++epoch) {
    report.CalibrateHost();
    // The benchmark's own copies are built before the heap is first read,
    // so the growth until the end of the traffic is the server's: its
    // sketch, loops, sessions and buffers.
    CmsLayers layers(p);
    layers.Feed(preload);
    const double heap_before = HeapInUseMb();
    Daemon daemon;
    setup_s.emplace_back();
    start_s.emplace_back();
    if (!SetUp(p, shape, options, cpus, preload, daemon, preload_traffic,
               setup_s.back(), start_s.back(), epoch == 0, report)) {
      break;
    }

    std::vector<double> out;
    for (size_t c = 0; c < shape.connections; ++c) {
      for (size_t r = 0; r < p.warmup_requests; ++r) {
        const size_t base = (r % shape.queries_per_round) * shape.batch;
        daemon.connections[c].Query(
            Span<const uint64_t>(&queries[c][base], shape.batch), out);
      }
    }
    if (epoch == 0) {
      for (size_t base = 0; base < dataset_keys.size();
           base += p.wide_batch) {
        const Span<const uint64_t> block(
            &dataset_keys[base],
            std::min(p.wide_batch, dataset_keys.size() - base));
        if (!daemon.connections[0].Query(block, out).ok) break;
        for (size_t i = 0; i < block.size(); ++i) {
          tally.Add(out[i], static_cast<double>(exact[block[i]]));
        }
      }
    }

    // One connection's rounds: `seconds` of them, at least `min_rounds`.
    const auto drive = [&](size_t c, double seconds, size_t min_rounds,
                           bool traced, Traffic& into) {
      Connection& conn = daemon.connections[c];
      Tracer& tracer = tracers[c];
      CmsLayers::Scratch scratch = layers.NewScratch();
      std::vector<double> answers;
      bool ok = true;
      const auto round = [&] {
        for (size_t q = 0; q < shape.queries_per_round; ++q) {
          const Span<const uint64_t> block(&queries[c][q * shape.batch],
                                           shape.batch);
          RoundTrip rt = conn.Query(block, answers);
          if (!rt.ok) return false;
          into.AddQuery(rt, block.size());
          if (traced) {
            layers.ReplayQuery(tracer, tracer.Root(rt, block.size()), block,
                               answers, shape.connections == 1, scratch);
          }
          if (shape.ingest_every == 0 || (q + 1) % shape.ingest_every != 0) {
            continue;
          }
          const size_t i = q / shape.ingest_every;
          const Span<const uint64_t> items(&ingests[c][i * p.ingest_block],
                                           p.ingest_block);
          rt = conn.Ingest(items);
          if (!rt.ok) return false;
          into.AddIngest(rt, items.size());
          if (traced) {
            layers.ReplayIngest(tracer, tracer.Root(rt, items.size()), items,
                                conn.last_ack, scratch);
          }
        }
        if (!traced) layers.Feed(ingests[c]);
        return true;
      };
      RunRounds(seconds, min_rounds, [&] { return ok = round(); });
      return ok;
    };
    // Each connection runs its whole epoch on one thread pinned to its CPU.
    // A failed request ends its rounds; CloseEpoch reports it.
    const auto serve = [&](size_t c) {
      if (cpus.size() > 1) PinThread(cpus[c % cpus.size()]);
      if (drive(c, untraced_seconds, 1, false, traffic[c]) && options.trace) {
        drive(c, 0.0, kTracedRounds, true, traced_traffic[c]);
      }
    };
    if (shape.connections == 1) {
      serve(0);
    } else {
      std::vector<std::thread> clients;
      for (size_t c = 0; c < shape.connections; ++c) {
        clients.emplace_back(serve, c);
      }
      for (std::thread& client : clients) client.join();
    }
    out = std::vector<double>();  // The client's buffer, not the server's.
    server_mb.push_back(HeapInUseMb() - heap_before);

    std::vector<Connection*> connections;
    for (Connection& c : daemon.connections) connections.push_back(&c);
    const server::ServerStatsSnapshot stats =
        CloseEpoch(*daemon.server, connections, probe, layers.Reference(probe),
                   layers.mismatches(), options, report);
    extras.handler_p50_us.push_back(stats.query_p50_micros);
    extras.handler_p99_us.push_back(stats.query_p99_micros);
  }
  report.CalibrateHost();
  if (!report.correct()) return 1;

  if (options.trace) {
    extras.server_start_s = Median(start_s);
    extras.untraced_query_rate = QueryRate(Pointers(traffic));
    extras.traced_query_rate = QueryRate(Pointers(traced_traffic));
    ReportTracedRun(Pointers(tracers), extras, options, report);
    return 0;
  }
  report.Add("setup_s", Median(setup_s), "s");
  // No ingest in cms_wide's timed traffic: the preloads are its sample.
  AddServingMetrics(Pointers(traffic),
                    shape.ingest_every ? Pointers(traffic)
                                       : std::vector<const Traffic*>{
                                             &preload_traffic},
                    report);
  report.Add("avg_abs_error", tally.Average(), "count");
  report.Add("expected_abs_error", tally.Expected(), "count");
  report.Note("errors: scored on the " + std::to_string(tally.count) +
              " distinct keys of the preloaded stream");
  report.Add("server_heap_mb", Median(server_mb), "MB");
  return 0;
}

}  // namespace perfbench
