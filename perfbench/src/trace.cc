#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRoundTrip: return "client.round_trip";
    case Layer::kRequestCodec: return "protocol.request_codec";
    case Layer::kReplyCodec: return "protocol.reply_codec";
    case Layer::kServedEstimate: return "served_model.estimate";
    case Layer::kServedIngest: return "served_model.ingest";
    case Layer::kSketchEstimate: return "sketch.estimate";
    case Layer::kSketchUpdate: return "sketch.update";
    case Layer::kKernelHash: return "kernels.hash";
    case Layer::kKernelMinGather: return "kernels.min_gather";
    case Layer::kKernelScatter: return "kernels.scatter";
    case Layer::kBundleEstimate: return "io.bundle_estimate";
    case Layer::kFeaturize: return "stream.featurize";
    case Layer::kPredict: return "ml.predict";
    case Layer::kAccumulate: return "core.accumulate";
    case Layer::kCount: break;
  }
  return "unknown";
}

namespace {

Span<const uint8_t> Payload(const std::vector<uint8_t>& frame) {
  return Span<const uint8_t>(frame.data() + opthash::server::kFrameHeaderSize,
                             frame.size() - opthash::server::kFrameHeaderSize);
}

}  // namespace

bool ReplayRequestCodec(Tracer& tracer, int32_t root,
                        opthash::server::MessageType type,
                        Span<const uint64_t> keys, CodecScratch& scratch) {
  bool ok = false;
  tracer.Time(Layer::kRequestCodec, root, keys.size(), [&] {
    opthash::server::EncodeKeyRequest(type, keys, scratch.frame);
    ok = opthash::server::DecodeKeyRequest(Payload(scratch.frame), type,
                                           scratch.keys)
             .ok();
  });
  return ok && std::equal(keys.begin(), keys.end(), scratch.keys.begin(),
                          scratch.keys.end());
}

bool ReplayEstimatesCodec(Tracer& tracer, int32_t root,
                          const std::vector<double>& answers,
                          CodecScratch& scratch) {
  bool ok = false;
  tracer.Time(Layer::kReplyCodec, root, answers.size(), [&] {
    opthash::server::EncodeEstimatesResponse(answers, scratch.frame);
    ok = opthash::server::DecodeEstimatesResponse(Payload(scratch.frame),
                                                  scratch.estimates)
             .ok();
  });
  return ok && scratch.estimates == answers;
}

bool ReplayAckCodec(Tracer& tracer, int32_t root, uint64_t value,
                    CodecScratch& scratch) {
  bool ok = false;
  tracer.Time(Layer::kReplyCodec, root, 1, [&] {
    opthash::server::EncodeAckResponse(value, scratch.frame);
    auto decoded =
        opthash::server::DecodeAckResponse(Payload(scratch.frame));
    ok = decoded.ok() && decoded.value() == value;
  });
  return ok;
}

namespace {

// Per-layer self time totals over every traced request. The residual is
// the remainder by construction (self times plus residual always equal
// the round trip), so the ledger's test is that the residual is not
// negative at the median: the replayed layers must fit inside the round
// trips they are attributed to.
struct Ledger {
  double self_ns[static_cast<int>(Layer::kCount)] = {};
  uint64_t units[static_cast<int>(Layer::kCount)] = {};
  std::vector<double> request_codec_ns;
  std::vector<double> reply_codec_ns;
  std::vector<double> residual_us;
  double round_trip_ns = 0.0;
  uint64_t requests = 0;
  uint64_t negative_residuals = 0;  // Requests whose layers outlast them.
  bool ok = true;
  std::string error;

  double SelfNsPer(Layer layer) const {
    const auto i = static_cast<int>(layer);
    return units[i] ? self_ns[i] / static_cast<double>(units[i]) : 0.0;
  }
};

Ledger BuildLedger(const std::vector<const Tracer*>& tracers) {
  Ledger ledger;
  std::vector<double> self;
  for (const Tracer* tracer : tracers) {
    const std::vector<SpanRecord>& spans = tracer->spans();
    self.assign(spans.size(), 0.0);
    for (size_t i = 0; i < spans.size(); ++i) {
      self[i] += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      if (spans[i].parent >= 0) {
        self[static_cast<size_t>(spans[i].parent)] -=
            static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      }
    }
    // Requests are contiguous runs of spans starting at their root.
    size_t begin = 0;
    while (begin < spans.size()) {
      size_t end = begin + 1;
      while (end < spans.size() && spans[end].parent >= 0) ++end;
      const SpanRecord& root = spans[begin];
      const double round_trip =
          static_cast<double>(root.end_ns - root.start_ns);
      for (size_t i = begin; i < end; ++i) {
        const auto layer = static_cast<int>(spans[i].layer);
        if (spans[i].layer == Layer::kRoundTrip) continue;
        ledger.self_ns[layer] += self[i];
        ledger.units[layer] += spans[i].units;
        if (spans[i].layer == Layer::kRequestCodec) {
          ledger.request_codec_ns.push_back(self[i]);
        } else if (spans[i].layer == Layer::kReplyCodec) {
          ledger.reply_codec_ns.push_back(self[i]);
        }
      }
      if (root.layer != Layer::kRoundTrip || end - begin < 4) {
        ledger.ok = false;
        ledger.error = "request " + std::to_string(root.request) +
                       " lacks its codec and model spans";
      }
      if (self[begin] < 0.0) ++ledger.negative_residuals;
      ledger.residual_us.push_back(self[begin] / 1e3);
      ledger.round_trip_ns += round_trip;
      ++ledger.requests;
      begin = end;
    }
  }
  if (ledger.requests == 0) {
    ledger.ok = false;
    ledger.error = "no traced requests";
  } else if (Median(ledger.residual_us) < 0.0) {
    ledger.ok = false;
    ledger.error =
        "median residual is negative: the replayed layers take longer "
        "than the round trips they are attributed to";
  }
  return ledger;
}

// Prints each layer's share of the summed round trips.
void PrintLedger(const Ledger& ledger) {
  double residual_ns = 0.0;
  for (double us : ledger.residual_us) residual_ns += us * 1e3;
  std::printf("ledger: %llu requests, %.3f s of round trips\n",
              static_cast<unsigned long long>(ledger.requests),
              ledger.round_trip_ns / 1e9);
  for (int i = 1; i < static_cast<int>(Layer::kCount); ++i) {
    if (ledger.units[i] == 0) continue;
    std::printf("ledger:   %-24s self %7.2f%%\n",
                LayerName(static_cast<Layer>(i)),
                100.0 * ledger.self_ns[i] / ledger.round_trip_ns);
  }
  std::printf("ledger:   %-24s self %7.2f%%\n", "event_loop.residual",
              100.0 * residual_ns / ledger.round_trip_ns);
  std::printf("ledger:   %.2f%% of requests have a negative residual\n",
              ledger.requests ? 100.0 *
                                    static_cast<double>(
                                        ledger.negative_residuals) /
                                    static_cast<double>(ledger.requests)
                              : 0.0);
  std::printf("ledger: %s\n",
              ledger.ok ? "median residual is not negative"
                        : ledger.error.c_str());
}

// Writes every span as CSV, headed by the run fingerprint.
opthash::Status WriteSpans(const std::string& path,
                           const std::vector<const Tracer*>& tracers,
                           const std::string& fingerprint) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return opthash::Status::InvalidArgument("cannot write " + path);
  }
  std::fprintf(file, "# %s\nrequest,span,name,parent,start_ns,end_ns,units\n",
               fingerprint.c_str());
  for (const Tracer* tracer : tracers) {
    const std::vector<SpanRecord>& spans = tracer->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(file, "%llu,%zu,%s,%d,%lld,%lld,%llu\n",
                   static_cast<unsigned long long>(s.request), i,
                   LayerName(s.layer), s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.units));
    }
  }
  return std::fclose(file) == 0
             ? opthash::Status::OK()
             : opthash::Status::InvalidArgument("cannot finish " + path);
}

}  // namespace

void ReportTracedRun(const std::vector<const Tracer*>& tracers,
                     const LayerExtras& extras, const Options& options,
                     Report& report) {
  const Ledger ledger = BuildLedger(tracers);
  PrintLedger(ledger);
  if (!ledger.ok) report.Fail("ledger: " + ledger.error);
  const auto per = [&](const char* name, Layer layer, const char* unit) {
    report.Add(name, ledger.SelfNsPer(layer), unit);
  };
  per("kernels.hash_ns_per_key", Layer::kKernelHash, "ns/key");
  per("kernels.min_gather_ns_per_key", Layer::kKernelMinGather, "ns/key");
  per("kernels.scatter_ns_per_item", Layer::kKernelScatter, "ns/item");
  per("sketch.update_ns_per_item", Layer::kSketchUpdate, "ns/item");
  per("sketch.estimate_ns_per_key", Layer::kSketchEstimate, "ns/key");
  per("served_model.ingest_ns_per_item", Layer::kServedIngest, "ns/item");
  per("served_model.estimate_ns_per_key", Layer::kServedEstimate, "ns/key");
  report.Add("protocol.request_codec_ns", Median(ledger.request_codec_ns),
             "ns");
  report.Add("protocol.reply_codec_ns", Median(ledger.reply_codec_ns), "ns");
  report.Add("server.handler_p50_us", Median(extras.handler_p50_us), "us");
  report.Add("server.handler_p99_us", Median(extras.handler_p99_us), "us");
  report.Add("event_loop.residual_us", Median(ledger.residual_us), "us");
  report.Add("core.table_hit_ratio", extras.table_hit_ratio, "ratio");
  per("io.bundle_estimate_ns_per_key", Layer::kBundleEstimate, "ns/key");
  per("stream.featurize_ns_per_miss", Layer::kFeaturize, "ns/miss");
  per("ml.predict_ns_per_row", Layer::kPredict, "ns/row");
  per("core.accumulate_ns_per_item", Layer::kAccumulate, "ns/item");
  report.Add("stream.prefix_featurize_s", extras.prefix_featurize_s, "s");
  report.Add("opt.solve_s", extras.solve_s, "s");
  report.Add("ml.fit_s", extras.fit_s, "s");
  report.Add("io.bundle_save_s", extras.bundle_save_s, "s");
  report.Add("io.bundle_open_s", extras.bundle_open_s, "s");
  report.Add("server.start_s", extras.server_start_s, "s");
  report.Add("trace.overhead_ratio",
             extras.untraced_query_rate / extras.traced_query_rate, "ratio");
  const opthash::Status written =
      WriteSpans(options.trace_file, tracers, report.Fingerprint());
  if (!written.ok()) report.Fail(written.ToString());
}

}  // namespace perfbench
