// The learned workload (learn_querylog): set-up trains an opt-hash
// bundle on day 0 of the synthetic query log (BCD, 10-tree random
// forest, 4096 buckets, c = 0.3, lambda = 1), saves it, opens it with
// OpenServedModel and serves it over one Unix connection on one pinned
// CPU. Each round then replays days 1..D: ingest the day in 4096-item
// blocks, then query the day's distinct ids, shuffled into 512-key
// blocks. Most queried ids miss the learned table and go through
// featurize + random-forest predict; the sketch kernels do no work.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unistd.h>

#include "bench.h"
#include "common/random.h"
#include "core/opt_hash_estimator.h"
#include "io/model_io.h"
#include "server/served_model.h"
#include "server/server.h"
#include "stream/query_log.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace server = opthash::server;
namespace io = opthash::io;
namespace core = opthash::core;
namespace stream = opthash::stream;

struct LearnParams {
  size_t num_queries = 50'000;
  size_t arrivals_per_day = 12'000;
  size_t days = 30;  // Days 1..days make one round.
  size_t buckets = 4096;
  double id_ratio = 0.3;
  size_t trees = 10;
  size_t tree_depth = 12;
  size_t setups = 5;
  size_t query_batch = 512;
  size_t ingest_block = 4096;
  size_t probe_known = 3072;
  size_t probe_unseen = 1024;
};

LearnParams ParamsFor(const Options& options) {
  LearnParams p;
  if (options.smoke) {
    p.num_queries = 5'000;
    p.arrivals_per_day = 2'000;
    p.days = 3;
    p.buckets = 256;
    p.trees = 3;
    p.setups = 1;
    p.probe_known = 256;
    p.probe_unseen = 64;
  }
  return p;
}

// Generated once per run from the seed; not part of set-up.
struct QueryLogInputs {
  std::vector<std::vector<uint64_t>> days;           // Arrivals per day.
  std::vector<std::vector<uint64_t>> query_order;    // Distinct ids, shuffled.
  std::vector<std::pair<std::string, double>> corpus;  // Day-0 texts, counts.
  std::vector<uint64_t> day0_ids;                    // Same order as corpus.
};

std::vector<uint64_t> Shuffled(const std::vector<uint64_t>& values,
                               opthash::Rng& rng) {
  std::vector<uint64_t> out;
  for (size_t i : rng.Permutation(values.size())) out.push_back(values[i]);
  return out;
}

QueryLogInputs MakeInputs(const stream::QueryLog& log, size_t days,
                          uint64_t seed) {
  QueryLogInputs in;
  opthash::Rng rng(seed);
  for (size_t day = 0; day <= days; ++day) {
    std::vector<uint64_t> arrivals;
    for (size_t rank : log.GenerateDay(day)) {
      arrivals.push_back(log.QueryId(rank));
    }
    std::vector<uint64_t> distinct = arrivals;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    if (day == 0) {
      std::vector<double> counts(log.NumQueries() + 1, 0.0);
      for (uint64_t id : arrivals) counts[id] += 1.0;
      for (uint64_t id : distinct) {
        in.corpus.push_back({log.QueryText(id), counts[id]});
        in.day0_ids.push_back(id);
      }
    }
    in.days.push_back(Shuffled(arrivals, rng));
    in.query_order.push_back(Shuffled(distinct, rng));
  }
  return in;
}

// Timings of one set-up.
struct SetUpTimes {
  double total = 0.0;
  double prefix_featurize = 0.0;
  double solve = 0.0;
  double fit = 0.0;
  double bundle_save = 0.0;
  double bundle_open = 0.0;
  double server_start = 0.0;
};

struct Daemon {
  std::unique_ptr<server::Server> server;
  std::unique_ptr<Connection> connection;
};

double Seconds(int64_t begin, int64_t end) {
  return static_cast<double>(end - begin) / 1e9;
}

// Featurize the prefix, train, save, open, serve, connect.
bool SetUp(const LearnParams& p, const QueryLogInputs& in,
           const std::string& bundle_path, Daemon& daemon,
           SetUpTimes& times, Report& report) {
  const int64_t begin = NowNs();
  stream::BagOfWordsFeaturizer featurizer(500);
  featurizer.Fit(in.corpus);
  std::vector<core::PrefixElement> prefix;
  for (size_t i = 0; i < in.corpus.size(); ++i) {
    prefix.push_back({in.day0_ids[i], in.corpus[i].second,
                      featurizer.Featurize(in.corpus[i].first)});
  }
  const int64_t featurized = NowNs();
  core::OptHashConfig config;
  config.total_buckets = p.buckets;
  config.id_ratio = p.id_ratio;
  config.lambda = 1.0;
  config.solver = core::SolverKind::kBcd;
  config.classifier = core::ClassifierKind::kRandomForest;
  config.rf.num_trees = p.trees;
  config.rf.max_depth = p.tree_depth;
  auto trained = core::OptHashEstimator::Train(config, prefix);
  if (!trained.ok()) {
    report.Fail("train: " + trained.status().ToString());
    return false;
  }
  const int64_t fitted = NowNs();
  times.solve = trained.value().training_info().solve_result.elapsed_seconds;
  times.fit = trained.value().training_info().classifier_train_seconds;
  io::ModelBundle bundle;
  bundle.featurizer = std::move(featurizer);
  bundle.estimator = std::move(trained).value();
  const opthash::Status saved =
      io::SaveModelBundle(bundle_path, bundle, io::SnapshotFormat::kBinary);
  const int64_t saved_at = NowNs();
  if (!saved.ok()) {
    report.Fail("save bundle: " + saved.ToString());
    return false;
  }
  auto opened = server::OpenServedModel(bundle_path, /*use_mmap=*/false);
  const int64_t opened_at = NowNs();
  if (!opened.ok()) {
    report.Fail("open bundle: " + opened.status().ToString());
    return false;
  }
  server::ServerConfig server_config;
  server_config.socket_path = bundle_path + ".sock";
  server_config.event_threads = 1;
  server_config.ingest = SequentialIngest();
  daemon.server = std::make_unique<server::Server>(
      server_config, std::move(opened.value().model));
  const opthash::Status started = daemon.server->Start();
  const int64_t started_at = NowNs();
  if (!started.ok()) {
    report.Fail("start server: " + started.ToString());
    return false;
  }
  auto connection = Connection::Open(server_config.socket_path);
  if (!connection.ok()) {
    report.Fail("connect: " + connection.status().ToString());
    return false;
  }
  daemon.connection =
      std::make_unique<Connection>(std::move(connection).value());
  const int64_t end = NowNs();
  times.total = Seconds(begin, end);
  times.prefix_featurize = Seconds(begin, featurized);
  times.bundle_save = Seconds(fitted, saved_at);
  times.bundle_open = Seconds(saved_at, opened_at);
  times.server_start = Seconds(opened_at, started_at);
  return true;
}

// The in-process reference (a BundleQueryEngine over the same bundle
// file, fed the same arrivals) plus a served-model replica for the
// traced run.
class BundleLayers {
 public:
  BundleLayers(std::unique_ptr<io::ModelBundle> bundle,
               std::unique_ptr<server::ServedModel> replica)
      : bundle_(std::move(bundle)),
        engine_(*bundle_),
        replica_(std::move(replica)),
        context_(replica_->NewQueryContext()) {}

  void Feed(Span<const uint64_t> keys) {
    if (!replica_->Ingest(keys, SequentialIngest()).ok() || !Accumulate(keys)) {
      ++mismatches_;
    }
  }

  std::vector<double> Reference(Span<const uint64_t> keys) {
    std::vector<double> out(keys.size());
    Fill(keys);
    engine_.EstimateBlock(block_, out);
    return out;
  }

  void ReplayQuery(Tracer& tracer, int32_t root, Span<const uint64_t> keys,
                   const std::vector<double>& served) {
    const size_t n = keys.size();
    bool ok = ReplayRequestCodec(tracer, root, server::MessageType::kQuery,
                                 keys, codec_);
    answers_.resize(n);
    const int32_t adapter = tracer.Time(Layer::kServedEstimate, root, n, [&] {
      replica_->EstimateBatch(*context_, keys,
                              Span<double>(answers_.data(), n));
    });
    ok = ok && answers_ == served;
    size_t misses = 0;
    for (uint64_t key : keys) misses += estimator().table().count(key) == 0;
    hits_ += n - misses;
    keys_ += n;
    Fill(keys);
    const int32_t bundle = tracer.Time(Layer::kBundleEstimate, adapter, n, [&] {
      engine_.EstimateBlock(block_, Span<double>(answers_.data(), n));
    });
    ok = ok && answers_ == served;
    const size_t dim = bundle_->featurizer.FeatureDim();
    rows_.Reshape(misses, dim);
    tracer.Time(Layer::kFeaturize, bundle, misses, [&] {
      for (size_t i = 0; i < misses; ++i) {
        bundle_->featurizer.Featurize(empty_, Span<double>(rows_.Row(i), dim));
      }
    });
    predictions_.resize(misses);
    tracer.Time(Layer::kPredict, bundle, misses, [&] {
      estimator().classifier()->PredictBatch(
          rows_, Span<int>(predictions_.data(), misses));
    });
    ok = ReplayEstimatesCodec(tracer, root, served, codec_) && ok;
    if (!ok) ++mismatches_;
  }

  void ReplayIngest(Tracer& tracer, int32_t root, Span<const uint64_t> keys,
                    uint64_t acked) {
    const size_t n = keys.size();
    bool ok = ReplayRequestCodec(tracer, root, server::MessageType::kIngest,
                                 keys, codec_);
    const int32_t adapter = tracer.Time(Layer::kServedIngest, root, n, [&] {
      ok = replica_->Ingest(keys, SequentialIngest()).ok() && ok;
    });
    tracer.Time(Layer::kAccumulate, adapter, n,
                [&] { ok = Accumulate(keys) && ok; });
    ok = ReplayAckCodec(tracer, root, acked, codec_) && ok;
    if (!ok) ++mismatches_;
  }

  double hit_ratio() const {
    return keys_ ? static_cast<double>(hits_) / static_cast<double>(keys_)
                 : 0.0;
  }
  uint64_t mismatches() const { return mismatches_; }

 private:
  core::OptHashEstimator& estimator() { return *bundle_->estimator; }

  bool Accumulate(Span<const uint64_t> keys) {
    deltas_.assign(estimator().num_buckets(), 0.0);
    estimator().AccumulateUpdates(keys, deltas_);
    return estimator().ApplyBucketDeltas(deltas_).ok();
  }

  void Fill(Span<const uint64_t> keys) {
    block_.resize(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) block_[i].id = keys[i];
  }

  std::unique_ptr<io::ModelBundle> bundle_;
  io::BundleQueryEngine engine_;
  std::unique_ptr<server::ServedModel> replica_;
  std::unique_ptr<server::ServedModel::QueryContext> context_;
  std::vector<stream::TraceRecord> block_;
  std::vector<double> deltas_;
  std::vector<double> answers_;
  opthash::ml::Matrix rows_;
  std::vector<int> predictions_;
  const std::string empty_;
  CodecScratch codec_;
  uint64_t hits_ = 0;
  uint64_t keys_ = 0;
  uint64_t mismatches_ = 0;
};

}  // namespace

int RunLearnQueryLog(const Options& options, Report& report) {
  const LearnParams p = ParamsFor(options);
  report.SetPinnedCpus(PinProcess(1));
  // The query log is a fixed dataset and training uses fixed seeds, so
  // the bundle and its error metrics are the same in every run; the seed
  // orders the traffic (arrivals within a day, ids within query blocks).
  stream::QueryLogConfig log_config;
  log_config.num_queries = p.num_queries;
  log_config.arrivals_per_day = p.arrivals_per_day;
  log_config.num_days = p.days + 1;
  const stream::QueryLog log(log_config);
  const QueryLogInputs in = MakeInputs(log, p.days, options.seed);
  const std::string bundle_path = options.work_dir + "/learn-" +
                                  std::to_string(::getpid()) + ".bundle";
  std::vector<uint64_t> probe;
  for (uint64_t id = 1; id <= p.probe_known; ++id) probe.push_back(id);
  for (uint64_t i = 1; i <= p.probe_unseen; ++i) {
    probe.push_back(p.num_queries + i);  // Never logged: classifier path.
  }

  // Exact counts for the §7.4 errors of the first round: day 0 is in the
  // trained bundle, day t is added before its queries are answered.
  std::vector<uint32_t> exact(p.num_queries + 1, 0);
  for (uint64_t id : in.days[0]) ++exact[id];
  ErrorTally tally;
  bool scored = false;
  Tracer tracer(0);
  Traffic traffic;
  Traffic traced_traffic;
  std::vector<SetUpTimes> setups;
  std::vector<double> server_mb;
  LayerExtras extras;

  // Each epoch trains and serves afresh and measures for its share of the
  // run, so set-up and traffic samples spread over the run.
  const double epoch_seconds = options.seconds / static_cast<double>(p.setups);
  for (size_t epoch = 0; epoch < p.setups && report.correct(); ++epoch) {
    report.CalibrateHost();
    // The server's memory is the heap growth over set-up and over the
    // traffic, leaving out the benchmark loading its own reference copies
    // in between.
    const double heap_before = HeapInUseMb();
    Daemon daemon;
    setups.emplace_back();
    if (!SetUp(p, in, bundle_path, daemon, setups.back(), report)) break;
    const double heap_served = HeapInUseMb();
    auto reference = io::LoadModelBundle(bundle_path);
    auto replica = server::OpenServedModel(bundle_path, /*use_mmap=*/false);
    std::remove(bundle_path.c_str());
    if (!reference.ok() || !replica.ok()) {
      report.Fail("reload bundle for the reference");
      break;
    }
    BundleLayers layers(
        std::make_unique<io::ModelBundle>(std::move(reference).value()),
        std::move(replica.value().model));
    Connection& conn = *daemon.connection;
    std::vector<double> out;
    const double heap_loaded = HeapInUseMb();

    const auto query_blocks = [&](size_t day, auto&& on_block) {
      const std::vector<uint64_t>& ids = in.query_order[day];
      for (size_t base = 0; base < ids.size(); base += p.query_batch) {
        const size_t n = std::min(p.query_batch, ids.size() - base);
        if (!on_block(Span<const uint64_t>(&ids[base], n))) return false;
      }
      return true;
    };
    query_blocks(1, [&](Span<const uint64_t> block) {
      return conn.Query(block, out).ok;  // Warm-up.
    });

    const auto run = [&](double seconds, size_t min_rounds, bool traced,
                         Traffic& into) {
      RunRounds(seconds, min_rounds, [&] {
        const bool score = !scored;
        for (size_t day = 1; day <= p.days; ++day) {
          const std::vector<uint64_t>& arrivals = in.days[day];
          for (size_t base = 0; base < arrivals.size();
               base += p.ingest_block) {
            const Span<const uint64_t> items(
                &arrivals[base],
                std::min(p.ingest_block, arrivals.size() - base));
            const RoundTrip rt = conn.Ingest(items);
            if (!rt.ok) return false;
            into.AddIngest(rt, items.size());
            if (traced) {
              layers.ReplayIngest(tracer, tracer.Root(rt, items.size()),
                                  items, conn.last_ack);
            }
          }
          if (score) {
            for (uint64_t id : arrivals) ++exact[id];
          }
          const bool answered =
              query_blocks(day, [&](Span<const uint64_t> block) {
                const RoundTrip rt = conn.Query(block, out);
                if (!rt.ok) return false;
                into.AddQuery(rt, block.size());
                if (score) {
                  for (size_t i = 0; i < block.size(); ++i) {
                    tally.Add(out[i], static_cast<double>(exact[block[i]]));
                  }
                }
                if (traced) {
                  layers.ReplayQuery(tracer, tracer.Root(rt, block.size()),
                                     block, out);
                }
                return true;
              });
          if (!answered) return false;
          if (!traced) layers.Feed(arrivals);
        }
        scored = true;
        return true;
      });
    };
    run(options.trace ? epoch_seconds / 2 : epoch_seconds, 1, false, traffic);
    if (options.trace) run(0.0, kTracedRounds, true, traced_traffic);
    server_mb.push_back(heap_served - heap_before + HeapInUseMb() -
                        heap_loaded);

    // Probe gate: served answers against the reference engine after the
    // same ingest.
    const server::ServerStatsSnapshot stats =
        CloseEpoch(*daemon.server, {&conn}, probe, layers.Reference(probe),
                   layers.mismatches(), options, report);
    extras.handler_p50_us.push_back(stats.query_p50_micros);
    extras.handler_p99_us.push_back(stats.query_p99_micros);
    extras.table_hit_ratio = layers.hit_ratio();
  }
  report.CalibrateHost();
  if (!report.correct()) return 1;

  const auto median_of = [&setups](double SetUpTimes::*field) {
    std::vector<double> values;
    for (const SetUpTimes& t : setups) values.push_back(t.*field);
    return Median(values);
  };
  if (options.trace) {
    extras.prefix_featurize_s = median_of(&SetUpTimes::prefix_featurize);
    extras.solve_s = median_of(&SetUpTimes::solve);
    extras.fit_s = median_of(&SetUpTimes::fit);
    extras.bundle_save_s = median_of(&SetUpTimes::bundle_save);
    extras.bundle_open_s = median_of(&SetUpTimes::bundle_open);
    extras.server_start_s = median_of(&SetUpTimes::server_start);
    extras.untraced_query_rate = QueryRate({&traffic});
    extras.traced_query_rate = QueryRate({&traced_traffic});
    ReportTracedRun({&tracer}, extras, options, report);
    return 0;
  }
  report.Add("setup_s", median_of(&SetUpTimes::total), "s");
  AddServingMetrics({&traffic}, {&traffic}, report);
  report.Add("avg_abs_error", tally.Average(), "count");
  report.Add("expected_abs_error", tally.Expected(), "count");
  report.Note("errors: scored on " + std::to_string(tally.count) +
              " (day, id) queries of days 1.." + std::to_string(p.days));
  report.Add("server_heap_mb", Median(server_mb), "MB");
  return 0;
}

}  // namespace perfbench
