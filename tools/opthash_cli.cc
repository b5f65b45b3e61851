// opthash_cli — train / apply / query / evaluate opt-hash estimators on
// CSV stream traces, and snapshot / restore durable sketch checkpoints.
// This is the operational workflow of §3: learn the scheme offline from an
// observed prefix, ship the model to the stream processor, keep counting,
// checkpoint, answer queries.
//
// The authoritative synopsis, flag list and defaults live in kUsageText
// below — the one string `--help` prints. (An earlier revision duplicated
// the synopsis here and the copies drifted; keep this comment prose-only.)
//
// Traces are CSV files with header `id,text`; the text column feeds the
// bag-of-words featurizer (may be empty for key-only workloads).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/evaluation.h"
#include "core/opt_hash_estimator.h"
#include "io/artifact.h"
#include "sketch/estimate_as_double.h"
#include "sketch/windowed_sketch.h"
#include "server/protocol.h"
#include "server/served_model.h"
#include "stream/element.h"
#include "stream/features.h"
#include "stream/sharded_ingest.h"
#include "stream/trace_io.h"
#include "tool_flags.h"

namespace opthash::cli {
namespace {

// Single source of truth for the CLI contract: Usage() prints it, and the
// file header comment above defers to it instead of restating defaults.
constexpr const char* kUsageText =
    "usage: opthash_cli <train|apply|query|evaluate|snapshot|restore|topk> "
    "--flag value ...\n"
    "  train    --trace prefix.csv --out model [--buckets N] [--ratio C]\n"
    "           [--lambda L] [--solver bcd|dp|milp]\n"
    "           [--classifier rf|cart|logreg|none] [--vocab V] [--seed S]\n"
    "           [--format text|binary]\n"
    "  apply    --model model --trace stream.csv --out model\n"
    "           [--threads N] [--block-size B] [--format text|binary]\n"
    "  query    --model model --trace queries.csv [--block-size B]\n"
    "  evaluate --model model --trace stream.csv\n"
    "  snapshot --trace stream.csv --out ckpt.bin [--in prev.bin]\n"
    "           [--sketch cms|countsketch|ams|lcms|mg|ss] [--width W]\n"
    "           [--depth D] [--capacity K] [--heavy H] [--buckets N]\n"
    "           [--seed S] [--conservative 1]\n"
    "           [--windows W --window N [--decay L]]\n"
    "  restore  --in file [--trace queries.csv] [--mmap 1]\n"
    "           [--block-size B]\n"
    "  topk     --in file [--k N] [--mmap 1]\n"
    "\n"
    "traces are CSV files with header `id,text`: a numeric (uint64)\n"
    "element key plus optional free text feeding the bag-of-words\n"
    "featurizer; the text column may be empty for key-only workloads.\n"
    "\n"
    "model files exist in two formats (docs/FORMATS.md): the legacy text\n"
    "bundle and the versioned, CRC-checked binary snapshot container.\n"
    "Readers auto-detect the format; --format picks what gets written.\n"
    "\n"
    "train flags:\n"
    "  --buckets N     overall memory budget b_total in 4-byte buckets,\n"
    "                  split between aggregation buckets and stored ids\n"
    "                  (default 1000)\n"
    "  --ratio C       the split ratio c = b/n of paper sec. 7.3; the\n"
    "                  paper examines 0.03 and 0.3 (default 0.3)\n"
    "  --lambda L      objective trade-off in [0,1]: 1 = estimation\n"
    "                  error only, 0 = feature similarity only\n"
    "                  (default 1.0)\n"
    "  --solver S      bcd (Algorithm 1), dp (exact for lambda = 1), or\n"
    "                  milp (exact branch-and-bound, tiny instances\n"
    "                  only) (default bcd)\n"
    "  --classifier K  model routing unseen elements: rf, cart, logreg,\n"
    "                  or none (default rf)\n"
    "  --vocab V       bag-of-words vocabulary size (default 500)\n"
    "  --seed S        RNG seed (default 1)\n"
    "  --format F      output encoding: text (legacy bundle) or binary\n"
    "                  (snapshot container; smaller, CRC-checked,\n"
    "                  mmap-loadable) (default text)\n"
    "\n"
    "query flags:\n"
    "  --block-size B  queries per batched estimator call: blocks flow\n"
    "                  through the allocation-free batch query path, and\n"
    "                  ids the learned table resolves skip featurization\n"
    "                  entirely (default 4096)\n"
    "\n"
    "apply flags:\n"
    "  --threads N     worker threads for sharded trace ingestion; 0 uses\n"
    "                  the hardware concurrency. Estimates after the\n"
    "                  merge are identical at every thread count\n"
    "                  (default 1)\n"
    "  --block-size B  trace items per worker dispatch block\n"
    "                  (default 65536)\n"
    "  --format F      output encoding; default: keep the input model's\n"
    "                  format\n"
    "\n"
    "snapshot flags (mid-stream sketch checkpoints):\n"
    "  --in prev.bin   resume from an existing checkpoint (its sketch\n"
    "                  kind and geometry win; the flags below are for\n"
    "                  fresh checkpoints only)\n"
    "  --sketch T      cms (count-min, default), countsketch, ams,\n"
    "                  lcms (learned count-min with a top-H oracle from\n"
    "                  this trace), mg (misra-gries), ss (space-saving)\n"
    "  --width W       counters per level, cms/countsketch (default 1024)\n"
    "  --depth D       levels, cms/countsketch/lcms; ams groups\n"
    "                  (default 4)\n"
    "  --capacity K    tracked entries, mg/ss; ams estimators per group\n"
    "                  (default 256)\n"
    "  --heavy H       lcms heavy keys, taken as this trace's top-H\n"
    "                  (default 16)\n"
    "  --buckets N     lcms total bucket budget (default 1024)\n"
    "  --seed S        hash seed (default 1)\n"
    "  --conservative 1  cms only: Estan-Varghese conservative update\n"
    "                  (default 0)\n"
    "  --windows W     wrap the sketch in a ring of W per-window\n"
    "                  sub-sketches counting a sliding window of the\n"
    "                  last W*N arrivals (default 0 = lifetime counting;\n"
    "                  every kind except ams)\n"
    "  --window N      advance the ring every N arrivals (required with\n"
    "                  --windows). A windowed checkpoint stores the ring\n"
    "                  position, so `--in prev.bin` resumes mid-window\n"
    "                  exactly\n"
    "  --decay L       per-window geometric weight L in (0,1]; < 1 turns\n"
    "                  restore/serve estimates into exponentially\n"
    "                  decayed counts (default 1 = plain sliding window)\n"
    "\n"
    "restore flags:\n"
    "  --in file       a model bundle (either format) or a sketch\n"
    "                  checkpoint; the content is auto-detected\n"
    "  --trace Q       query CSV: prints id,estimate for each distinct\n"
    "                  id (ams checkpoints answer only the stream-wide\n"
    "                  F2 moment, so the trace is ignored with a note).\n"
    "                  Without it, prints a summary of the file\n"
    "  --mmap 1        zero-copy load: serve queries straight from the\n"
    "                  mapped file, with the same answers as a full load.\n"
    "                  Binary bundles and cms checkpoints map; text\n"
    "                  bundles and sketch kinds without a mapped view\n"
    "                  (countsketch/ams/lcms/mg/ss, windowed rings) fall\n"
    "                  back to a full load with a stderr notice (the\n"
    "                  daemon's contract too); the mode actually used is\n"
    "                  always reported as a `load mode:` stderr line\n"
    "  --block-size B  query ids per batched estimator call\n"
    "                  (default 4096)\n"
    "\n"
    "topk flags (offline heavy hitters, id,estimate,error_bound,guaranteed\n"
    "CSV — byte-identical to `opthash_client topk` on the same model):\n"
    "  --in file       any servable artifact. mg/ss report their tracked\n"
    "                  entries with sound bounds, lcms its exact oracle\n"
    "                  counts, model bundles their stored-id table; plain\n"
    "                  cms/countsketch checkpoints store no candidate ids\n"
    "                  and error out (same contract as the daemon)\n"
    "  --k N           heavy hitters to print (default 10)\n"
    "  --mmap 1        zero-copy load where supported; answers stay\n"
    "                  byte-identical to the full load\n"
    "\n"
    "serving (separate binaries, same artifacts):\n"
    "  opthash_serve   long-running daemon: loads any artifact this CLI\n"
    "                  writes, ingests live arrivals, answers batched\n"
    "                  queries over a Unix socket, rotates durable\n"
    "                  snapshots (see opthash_serve --help)\n"
    "  opthash_client  scripting client for the daemon (ping/query/\n"
    "                  ingest/stats/snapshot/shutdown)\n"
    "operations manual + wire protocol: docs/OPERATIONS.md\n";

Result<core::SolverKind> ParseSolver(const std::string& name) {
  if (name == "bcd") return core::SolverKind::kBcd;
  if (name == "dp") return core::SolverKind::kDp;
  if (name == "milp") return core::SolverKind::kExact;
  return Status::InvalidArgument("unknown solver: " + name);
}

Result<core::ClassifierKind> ParseClassifier(const std::string& name) {
  if (name == "rf") return core::ClassifierKind::kRandomForest;
  if (name == "cart") return core::ClassifierKind::kCart;
  if (name == "logreg") return core::ClassifierKind::kLogisticRegression;
  if (name == "none") return core::ClassifierKind::kNone;
  return Status::InvalidArgument("unknown classifier: " + name);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int ExitCode(const Status& status) { return status.ok() ? 0 : Fail(status); }

int CmdTrain(const Flags& flags) {
  if (!flags.Has("trace") || !flags.Has("out")) {
    return Fail(Status::InvalidArgument("train needs --trace and --out"));
  }
  // Validate every flag before touching the (possibly large) trace.
  const auto vocab = flags.GetUint("vocab", 500);
  if (!vocab.ok()) return Fail(vocab.status());
  const auto buckets = flags.GetUint("buckets", 1000);
  if (!buckets.ok()) return Fail(buckets.status());
  const auto ratio = flags.GetDouble("ratio", 0.3);
  if (!ratio.ok()) return Fail(ratio.status());
  const auto lambda = flags.GetDouble("lambda", 1.0);
  if (!lambda.ok()) return Fail(lambda.status());
  const auto seed = flags.GetUint("seed", 1);
  if (!seed.ok()) return Fail(seed.status());
  const auto solver = ParseSolver(flags.Get("solver", "bcd"));
  if (!solver.ok()) return Fail(solver.status());
  const auto classifier = ParseClassifier(flags.Get("classifier", "rf"));
  if (!classifier.ok()) return Fail(classifier.status());
  const auto format = io::ParseSnapshotFormat(flags.Get("format", "text"));
  if (!format.ok()) return Fail(format.status());

  auto trace = stream::ReadTraceCsv(flags.Get("trace", ""));
  if (!trace.ok()) return Fail(trace.status());

  // Prefix frequencies + a representative text per id.
  std::unordered_map<uint64_t, double> counts;
  std::unordered_map<uint64_t, std::string> texts;
  for (const auto& record : trace.value()) {
    counts[record.id] += 1.0;
    texts.emplace(record.id, record.text);
  }
  std::printf("prefix: %zu arrivals, %zu distinct elements\n",
              trace.value().size(), counts.size());

  io::ModelBundle bundle;
  bundle.featurizer =
      stream::BagOfWordsFeaturizer(static_cast<size_t>(vocab.value()));
  std::vector<std::pair<std::string, double>> corpus;
  corpus.reserve(counts.size());
  for (const auto& [id, count] : counts) corpus.push_back({texts[id], count});
  bundle.featurizer.Fit(corpus);

  std::vector<core::PrefixElement> prefix;
  prefix.reserve(counts.size());
  for (const auto& [id, count] : counts) {
    prefix.push_back({.id = id,
                      .frequency = count,
                      .features = bundle.featurizer.Featurize(texts[id])});
  }

  core::OptHashConfig config;
  config.total_buckets = buckets.value();
  config.id_ratio = ratio.value();
  config.lambda = lambda.value();
  config.seed = seed.value();
  config.solver = solver.value();
  config.classifier = classifier.value();
  config.rf.num_trees = 10;

  auto trained = core::OptHashEstimator::Train(config, prefix);
  if (!trained.ok()) return Fail(trained.status());
  bundle.estimator = std::move(trained).value();
  std::printf(
      "trained: %zu buckets + %zu stored ids (%.2f KB), solver objective "
      "%.3f\n",
      bundle.estimator->num_buckets(), bundle.estimator->num_stored_ids(),
      bundle.estimator->MemoryKb(),
      bundle.estimator->training_info().solve_result.objective.overall);

  const Status saved =
      io::SaveModelBundle(flags.Get("out", ""), bundle, format.value());
  if (!saved.ok()) return Fail(saved);
  std::printf("%s model written to %s\n",
              io::SnapshotFormatName(format.value()),
              flags.Get("out", "").c_str());
  return 0;
}

int CmdApply(const Flags& flags) {
  if (!flags.Has("model") || !flags.Has("trace") || !flags.Has("out")) {
    return Fail(
        Status::InvalidArgument("apply needs --model, --trace and --out"));
  }
  const auto threads = flags.GetUint("threads", 1);
  if (!threads.ok()) return Fail(threads.status());
  const auto block_size = flags.GetUint("block-size", 1 << 16);
  if (!block_size.ok()) return Fail(block_size.status());
  stream::ShardedIngestConfig config;
  config.num_threads = static_cast<size_t>(threads.value());
  config.block_size = static_cast<size_t>(block_size.value());
  const Status config_ok = config.Validate();
  if (!config_ok.ok()) return Fail(config_ok);

  // Default output format: whatever the input model already uses.
  auto format = io::DetectFileFormat(flags.Get("model", ""));
  if (!format.ok()) return Fail(format.status());
  if (flags.Has("format")) {
    format = io::ParseSnapshotFormat(flags.Get("format", ""));
    if (!format.ok()) return Fail(format.status());
  }

  auto bundle = io::LoadModelBundle(flags.Get("model", ""));
  if (!bundle.ok()) return Fail(bundle.status());
  auto trace = stream::ReadTraceCsv(flags.Get("trace", ""));
  if (!trace.ok()) return Fail(trace.status());

  std::vector<uint64_t> ids;
  ids.reserve(trace.value().size());
  for (const auto& record : trace.value()) ids.push_back(record.id);

  auto stats = bundle.value().estimator->Ingest(ids, config);
  if (!stats.ok()) return Fail(stats.status());
  std::printf("applied %zu arrivals (%zu threads, %.3fs, %.0f items/sec)\n",
              stats.value().num_items, stats.value().threads_used,
              stats.value().seconds, stats.value().ItemsPerSecond());
  const Status saved = io::SaveModelBundle(flags.Get("out", ""),
                                           bundle.value(), format.value());
  if (!saved.ok()) return Fail(saved);
  return 0;
}

int CmdQuery(const Flags& flags) {
  if (!flags.Has("model") || !flags.Has("trace")) {
    return Fail(Status::InvalidArgument("query needs --model and --trace"));
  }
  const auto block_size = flags.GetUint("block-size", 4096);
  if (!block_size.ok()) return Fail(block_size.status());
  if (block_size.value() == 0) {
    return Fail(Status::InvalidArgument("--block-size must be >= 1"));
  }
  auto bundle = io::LoadModelBundle(flags.Get("model", ""));
  if (!bundle.ok()) return Fail(bundle.status());
  auto trace = stream::ReadTraceCsv(flags.Get("trace", ""));
  if (!trace.ok()) return Fail(trace.status());
  std::printf("id,estimate\n");
  // Distinct queries stream through the batched, allocation-free read
  // path in blocks; output is identical to the scalar featurize+Estimate
  // loop this replaced (the engine skips featurization where the
  // features could never be read, and classifies the blank payload
  // once).
  io::BundleQueryEngine engine(bundle.value());
  std::unordered_set<uint64_t> seen;
  std::vector<stream::TraceRecord> block;
  std::vector<double> estimates;
  // Clamp before reserving: --block-size is user input and an absurd
  // value must not abort via std::length_error.
  block.reserve(std::min<size_t>(block_size.value(), trace.value().size()));
  const auto flush = [&] {
    estimates.resize(block.size());
    engine.EstimateBlock(
        Span<const stream::TraceRecord>(block.data(), block.size()),
        Span<double>(estimates.data(), estimates.size()));
    for (size_t i = 0; i < block.size(); ++i) {
      std::printf("%llu,%.2f\n",
                  static_cast<unsigned long long>(block[i].id), estimates[i]);
    }
    block.clear();
  };
  for (const auto& record : trace.value()) {
    if (!seen.insert(record.id).second) continue;
    block.push_back(record);
    if (block.size() >= block_size.value()) flush();
  }
  flush();
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  if (!flags.Has("model") || !flags.Has("trace")) {
    return Fail(Status::InvalidArgument("evaluate needs --model and --trace"));
  }
  auto bundle = io::LoadModelBundle(flags.Get("model", ""));
  if (!bundle.ok()) return Fail(bundle.status());
  auto trace = stream::ReadTraceCsv(flags.Get("trace", ""));
  if (!trace.ok()) return Fail(trace.status());

  stream::ExactCounter truth;
  std::unordered_map<uint64_t, std::string> texts;
  for (const auto& record : trace.value()) {
    truth.Add(record.id);
    texts.emplace(record.id, record.text);
  }
  std::vector<std::vector<double>> feature_store;
  feature_store.reserve(truth.NumDistinct());
  std::vector<core::EvalQuery> queries;
  for (const auto& [id, count] : truth.counts()) {
    feature_store.push_back(bundle.value().featurizer.Featurize(texts[id]));
    queries.push_back(
        {{id, &feature_store.back()}, static_cast<double>(count)});
  }
  const core::ErrorMetrics metrics =
      core::EvaluateEstimator(*bundle.value().estimator, queries);
  std::printf("queries: %zu distinct elements (%llu arrivals)\n",
              metrics.num_queries,
              static_cast<unsigned long long>(truth.total()));
  std::printf("average absolute error:   %.4f\n",
              metrics.average_absolute_error);
  std::printf("expected magnitude error: %.4f\n",
              metrics.expected_magnitude_error);
  return 0;
}

// ---------------------------------------------------------------------------
// snapshot / restore: durable mid-stream sketch checkpoints.

Result<std::vector<uint64_t>> TraceIds(const std::string& path) {
  auto trace = stream::ReadTraceCsv(path);
  if (!trace.ok()) return trace.status();
  std::vector<uint64_t> ids;
  ids.reserve(trace.value().size());
  for (const auto& record : trace.value()) ids.push_back(record.id);
  return ids;
}

// Ingests `ids` into a plain sketch and writes it back as a checkpoint.
template <typename Sketch>
Status IngestAndSave(Sketch sketch, Span<const uint64_t> ids,
                     const std::string& out) {
  sketch.UpdateBatch(ids);
  OPTHASH_IO_RETURN_IF_ERROR(io::SaveSketchSnapshot(out, sketch));
  std::printf("%s checkpoint: ingested %zu arrivals, written to %s\n",
              io::SketchKindName<Sketch>(), ids.size(), out.c_str());
  return Status::OK();
}

// Windowed counting rides the same snapshot verb: the ring (position,
// per-window counts, sub-sketches) IS the checkpoint, so a later
// `--in prev.bin` run resumes mid-window exactly where this one stopped.
template <typename Sketch>
Status IngestAndSave(sketch::WindowedSketch<Sketch> ring,
                     Span<const uint64_t> ids, const std::string& out) {
  ring.UpdateBatch(ids);
  OPTHASH_IO_RETURN_IF_ERROR(io::SaveWindowedSketchSnapshot(out, ring));
  std::printf(
      "windowed %s checkpoint: ingested %zu arrivals (%zu windows x %llu "
      "items, sequence %llu), written to %s\n",
      io::SketchKindName<Sketch>(), ids.size(), ring.num_windows(),
      static_cast<unsigned long long>(ring.window_items()),
      static_cast<unsigned long long>(ring.window_sequence()), out.c_str());
  return Status::OK();
}

// The `--sketch` names of the windowable kinds as an English list
// ("cms, countsketch, lcms, mg or ss").
std::string WindowableKindNames() {
  std::vector<std::string> names;
  io::ForEachSketchKind([&](auto kind) {
    if (decltype(kind)::kInfo.windowable) {
      names.push_back(decltype(kind)::kInfo.cli_name);
    }
  });
  std::string list;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) list += i + 1 == names.size() ? " or " : ", ";
    list += names[i];
  }
  return list;
}

int CmdSnapshot(const Flags& flags) {
  if (!flags.Has("trace") || !flags.Has("out")) {
    return Fail(Status::InvalidArgument("snapshot needs --trace and --out"));
  }
  const auto width = flags.GetUint("width", 1024);
  if (!width.ok()) return Fail(width.status());
  const auto depth = flags.GetUint("depth", 4);
  if (!depth.ok()) return Fail(depth.status());
  const auto capacity = flags.GetUint("capacity", 256);
  if (!capacity.ok()) return Fail(capacity.status());
  const auto heavy = flags.GetUint("heavy", 16);
  if (!heavy.ok()) return Fail(heavy.status());
  const auto buckets = flags.GetUint("buckets", 1024);
  if (!buckets.ok()) return Fail(buckets.status());
  const auto seed = flags.GetUint("seed", 1);
  if (!seed.ok()) return Fail(seed.status());
  const auto conservative = flags.GetUint("conservative", 0);
  if (!conservative.ok()) return Fail(conservative.status());
  const auto windows_flag = flags.GetUint("windows", 0);
  if (!windows_flag.ok()) return Fail(windows_flag.status());
  const auto window_flag = flags.GetUint("window", 0);
  if (!window_flag.ok()) return Fail(window_flag.status());
  const auto decay_flag = flags.GetDouble("decay", 1.0);
  if (!decay_flag.ok()) return Fail(decay_flag.status());
  const size_t windows = static_cast<size_t>(windows_flag.value());
  const Status valid = sketch::ValidateFreshSketchFlags(
      width.value(), depth.value(), capacity.value(), buckets.value(),
      windows, window_flag.value(), decay_flag.value());
  if (!valid.ok()) return Fail(valid);

  auto ids = TraceIds(flags.Get("trace", ""));
  if (!ids.ok()) return Fail(ids.status());
  const std::string out = flags.Get("out", "");

  // Resume path: the checkpoint's own section decides the sketch kind;
  // geometry flags apply only to fresh checkpoints.
  if (flags.Has("in")) {
    const std::string in = flags.Get("in", "");
    return ExitCode(io::VisitArtifact(
        in, /*use_mmap=*/false, [&](auto&& artifact) -> Status {
          using Artifact = std::decay_t<decltype(artifact)>;
          if constexpr (std::is_same_v<Artifact, io::ModelBundle> ||
                        io::kIsMappedView<Artifact>) {
            return Status::InvalidArgument(
                in + " is not a single-sketch checkpoint");
          } else {
            return IngestAndSave(std::move(artifact), ids.value(), out);
          }
        }));
  }

  // Fresh path: a learned count-min ranks its oracle keys from this
  // trace.
  io::FreshSketchGeometry geometry;
  geometry.width = static_cast<size_t>(width.value());
  geometry.depth = static_cast<size_t>(depth.value());
  geometry.capacity = static_cast<size_t>(capacity.value());
  geometry.buckets = static_cast<size_t>(buckets.value());
  geometry.heavy = static_cast<size_t>(heavy.value());
  geometry.seed = seed.value();
  geometry.conservative = conservative.value() != 0;
  geometry.prefix = ids.value();
  const std::string kind = flags.Get("sketch", "cms");
  const auto done = io::VisitSketchKind(kind, [&](auto row) -> int {
    using Kind = decltype(row);
    if constexpr (!Kind::kInfo.windowable) {
      if (windows != 0) {
        return Fail(Status::InvalidArgument(
            kind +
            " estimates the stream-wide F2 moment, not per-key counts; "
            "windowed counting needs " +
            WindowableKindNames()));
      }
    }
    auto fresh = Kind::MakeFresh(geometry);
    if (!fresh.ok()) return Fail(fresh.status());
    if constexpr (Kind::kInfo.windowable) {
      if (windows != 0) {
        auto ring = sketch::WindowedSketch<typename Kind::Sketch>::Create(
            fresh.value(), windows, window_flag.value(), decay_flag.value());
        if (!ring.ok()) return Fail(ring.status());
        return ExitCode(
            IngestAndSave(std::move(ring).value(), ids.value(), out));
      }
    }
    return ExitCode(IngestAndSave(std::move(fresh).value(), ids.value(), out));
  });
  if (!done.has_value()) {
    return Fail(Status::InvalidArgument("unknown sketch kind: " + kind));
  }
  return *done;
}

std::vector<uint64_t> DistinctInOrder(const std::vector<uint64_t>& ids) {
  std::vector<uint64_t> distinct;
  std::unordered_set<uint64_t> seen;
  for (uint64_t id : ids) {
    if (seen.insert(id).second) distinct.push_back(id);
  }
  return distinct;
}

// The mode actually used to open a checkpoint, reported on stderr so
// callers (and tests) can tell a real zero-copy serve from the full-load
// fallback without parsing per-kind summary lines.
void ReportLoadMode(bool mmap) {
  std::fprintf(stderr, "load mode: %s\n", mmap ? "mmap" : "full");
}

// The distinct ids of the --trace query file flow to the estimator in
// blocks through the batch API; estimate_block fills one Span<double>
// per block.
template <typename BatchFn>
Status PrintEstimatesBatch(const Flags& flags, size_t block_size,
                           BatchFn estimate_block) {
  auto ids = TraceIds(flags.Get("trace", ""));
  if (!ids.ok()) return ids.status();
  std::printf("id,estimate\n");
  const std::vector<uint64_t> distinct = DistinctInOrder(ids.value());
  std::vector<double> estimates(std::min(block_size, distinct.size()));
  for (size_t base = 0; base < distinct.size(); base += block_size) {
    const size_t block = std::min(block_size, distinct.size() - base);
    estimate_block(Span<const uint64_t>(distinct.data() + base, block),
                   Span<double>(estimates.data(), block));
    for (size_t i = 0; i < block; ++i) {
      std::printf("%llu,%.2f\n",
                  static_cast<unsigned long long>(distinct[base + i]),
                  estimates[i]);
    }
  }
  return Status::OK();
}

// A bundle answers `restore`'s id-only queries as key-only ones, owned or
// mapped alike: a table miss reads the bundle's miss bucket.
Status PrintRestored(const Flags& flags, const std::string& /*in*/,
                     size_t block_size, const io::ModelBundle& bundle) {
  const core::OptHashEstimator& estimator = *bundle.estimator;
  if (!flags.Has("trace")) {
    std::printf("model bundle: %zu buckets, %zu stored ids, %.2f KB\n",
                estimator.num_buckets(), estimator.num_stored_ids(),
                estimator.MemoryKb());
    return Status::OK();
  }
  const int32_t miss_bucket =
      io::MissBucket(bundle.featurizer, estimator.classifier());
  return PrintEstimatesBatch(
      flags, block_size, [&](Span<const uint64_t> keys, Span<double> out) {
        core::EstimateStoredIds(estimator.table(),
                                estimator.bucket_counters(), miss_bucket,
                                keys, out);
      });
}

Status PrintRestored(const Flags& flags, const std::string& /*in*/,
                     size_t block_size, const io::MappedEstimatorView& view) {
  if (!flags.Has("trace")) {
    std::printf("mapped model bundle: %zu buckets, %zu stored ids\n",
                view.num_buckets(), view.num_stored_ids());
    return Status::OK();
  }
  return PrintEstimatesBatch(
      flags, block_size, [&](Span<const uint64_t> keys, Span<double> out) {
        core::EstimateStoredIds(view.table(), view.bucket_counters(),
                                view.miss_bucket(), keys, out);
      });
}

Status PrintRestored(const Flags& flags, const std::string& /*in*/,
                     size_t block_size, const io::MappedCountMinView& view) {
  if (!flags.Has("trace")) {
    std::printf("mapped count-min: %zux%zu counters, %llu arrivals\n",
                view.depth(), view.width(),
                static_cast<unsigned long long>(view.total_count()));
    return Status::OK();
  }
  return PrintEstimatesBatch(
      flags, block_size, [&](Span<const uint64_t> keys, Span<double> out) {
        sketch::EstimateBatchAsDouble(view, keys, out);
      });
}

template <typename Sketch>
Status PrintRestored(const Flags& flags, const std::string& in,
                     size_t block_size, const Sketch& sketch) {
  const char* kind = io::SketchKindName<Sketch>();
  if constexpr (!io::kSketchKindOf<Sketch>.per_key) {
    // AMS answers only the stream-wide F2 moment.
    if (flags.Has("trace")) {
      std::fprintf(stderr,
                   "note: %s estimates F2, not per-id counts; --trace "
                   "ignored\n",
                   kind);
    }
    std::printf("%s checkpoint restored from %s\nf2,%.2f\n", kind,
                in.c_str(), sketch.EstimateF2());
    return Status::OK();
  } else {
    if (!flags.Has("trace")) {
      std::printf("%s checkpoint restored from %s\n", kind, in.c_str());
      return Status::OK();
    }
    return PrintEstimatesBatch(
        flags, block_size,
        [&sketch](Span<const uint64_t> keys, Span<double> out) {
          sketch::EstimateBatchAsDouble(sketch, keys, out);
        });
  }
}

template <typename Sketch>
Status PrintRestored(const Flags& flags, const std::string& in,
                     size_t block_size,
                     const sketch::WindowedSketch<Sketch>& ring) {
  if (!flags.Has("trace")) {
    std::printf(
        "windowed %s checkpoint restored from %s: %zu windows x %llu "
        "items, sequence %llu, decay %.6f\n",
        io::SketchKindName<Sketch>(), in.c_str(), ring.num_windows(),
        static_cast<unsigned long long>(ring.window_items()),
        static_cast<unsigned long long>(ring.window_sequence()),
        ring.decay());
    return Status::OK();
  }
  // WindowedSketch answers in double natively (decay weights are
  // fractional), so no raw-counter staging is needed.
  return PrintEstimatesBatch(
      flags, block_size,
      [&ring](Span<const uint64_t> keys, Span<double> out) {
        ring.EstimateBatch(keys, out);
      });
}

// What an mmap request fell back from, for the notice.
template <typename Artifact>
const char* FullLoadKind() {
  if constexpr (std::is_same_v<Artifact, io::ModelBundle>) {
    return "text bundles";  // Binary bundles always map.
  } else if constexpr (io::kIsWindowed<Artifact>) {
    return "windowed checkpoints";
  } else {
    return io::SketchKindName<Artifact>();
  }
}

int CmdRestore(const Flags& flags) {
  if (!flags.Has("in")) {
    return Fail(Status::InvalidArgument("restore needs --in"));
  }
  const auto mmap_flag = flags.GetUint("mmap", 0);
  if (!mmap_flag.ok()) return Fail(mmap_flag.status());
  const bool use_mmap = mmap_flag.value() != 0;
  const auto block_size = flags.GetUint("block-size", 4096);
  if (!block_size.ok()) return Fail(block_size.status());
  if (block_size.value() == 0) {
    return Fail(Status::InvalidArgument("--block-size must be >= 1"));
  }
  const size_t block = static_cast<size_t>(block_size.value());
  const std::string in = flags.Get("in", "");

  // Zero-copy serving exists only for count-min checkpoints and binary
  // model bundles: every other artifact arrives fully loaded, with a
  // notice (the daemon's contract too), and the `load mode:` line always
  // reports what actually happened.
  return ExitCode(io::VisitArtifact(
      in, use_mmap, [&](auto&& artifact) -> Status {
        using Artifact = std::decay_t<decltype(artifact)>;
        constexpr bool kMapped = io::kIsMappedView<Artifact>;
        if constexpr (!kMapped) {
          if (use_mmap) {
            std::fprintf(stderr,
                         "note: mmap unsupported for %s, loading fully\n",
                         FullLoadKind<Artifact>());
          }
        }
        ReportLoadMode(kMapped);
        return PrintRestored(flags, in, block, artifact);
      }));
}

// Offline heavy hitters over any servable artifact, answered through the
// same ServedModel layer (and the same k clamp) as the daemon, so
// `opthash_cli topk` and `opthash_client topk` diff byte-identical on
// the same model file.
int CmdTopK(const Flags& flags) {
  if (!flags.Has("in")) {
    return Fail(Status::InvalidArgument("topk needs --in"));
  }
  const auto k_flag = flags.GetUint("k", 10);
  if (!k_flag.ok()) return Fail(k_flag.status());
  if (k_flag.value() == 0) {
    return Fail(Status::InvalidArgument("--k must be >= 1"));
  }
  const auto mmap_flag = flags.GetUint("mmap", 0);
  if (!mmap_flag.ok()) return Fail(mmap_flag.status());
  auto opened =
      server::OpenServedModel(flags.Get("in", ""), mmap_flag.value() != 0);
  if (!opened.ok()) return Fail(opened.status());
  ReportLoadMode(opened.value().mmap_used);
  const server::ServedModel& model = *opened.value().model;
  auto context = model.NewQueryContext();
  const size_t want = std::min<size_t>(static_cast<size_t>(k_flag.value()),
                                       server::kMaxHittersPerFrame);
  std::vector<sketch::HeavyHitter> hitters;
  const Status answered = model.TopK(*context, want, hitters);
  if (!answered.ok()) return Fail(answered);
  std::printf("%s\n", sketch::kHeavyHitterCsvHeader);
  for (const sketch::HeavyHitter& hitter : hitters) {
    std::printf("%s\n", sketch::HeavyHitterCsvRow(hitter).c_str());
  }
  return 0;
}

int Usage(std::FILE* out) {
  std::fputs(kUsageText, out);
  return out == stdout ? 0 : 2;
}

bool IsHelp(const std::string& arg) {
  return arg == "--help" || arg == "-h" || arg == "help";
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage(stderr);
  if (IsHelp(argv[1])) return Usage(stdout);
  // Honor --help/-h after the subcommand, but only in flag-name positions
  // (odd offsets): `--trace help` is a value, not a help request.
  for (int i = 2; i < argc; i += 2) {
    if (IsHelp(argv[i])) return Usage(stdout);
  }
  const std::string command = argv[1];
  auto flags = ParseFlags(argc, argv, 2);
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n", flags.status().ToString().c_str());
    return Usage(stderr);
  }
  if (command == "train") return CmdTrain(flags.value());
  if (command == "apply") return CmdApply(flags.value());
  if (command == "query") return CmdQuery(flags.value());
  if (command == "evaluate") return CmdEvaluate(flags.value());
  if (command == "snapshot") return CmdSnapshot(flags.value());
  if (command == "restore") return CmdRestore(flags.value());
  if (command == "topk") return CmdTopK(flags.value());
  return Usage(stderr);
}

}  // namespace
}  // namespace opthash::cli

int main(int argc, char** argv) { return opthash::cli::Main(argc, argv); }
