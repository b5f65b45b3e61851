// opthash_client — scripting/testing companion of opthash_serve: one
// shot per invocation, speaking the length-prefixed binary protocol of
// docs/OPERATIONS.md over the daemon's Unix-domain socket or TCP
// listener. Query output is the same `id,estimate` CSV the offline
// `query`/`restore` verbs print, so offline and served answers diff
// cleanly.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "server/client.h"
#include "stream/trace_io.h"

namespace opthash::cli {
namespace {

constexpr const char* kUsageText =
    "usage: opthash_client (--socket /path/daemon.sock |\n"
    "                       --connect host:port) <verb> [flags]\n"
    "  ping                       liveness probe (exit 0 iff serving)\n"
    "  query    --ids 1,2,3 | --trace queries.csv [--batch B]\n"
    "                             prints id,estimate CSV (distinct ids,\n"
    "                             first-seen order, like the query verb)\n"
    "  ingest   --trace stream.csv [--batch B]\n"
    "                             streams arrivals to the daemon in\n"
    "                             batches; prints the items-ingested total\n"
    "  stats                      prints `key value` lines (items/queries/\n"
    "                             latency p50+p99/snapshot age/uptime)\n"
    "  topk     [--k N]           prints id,estimate,error_bound,guaranteed\n"
    "                             CSV of the N heaviest keys (default 10),\n"
    "                             byte-identical to `opthash_cli topk` on\n"
    "                             the same model\n"
    "  metrics                    prints the Prometheus text-exposition\n"
    "                             scrape body (counters, gauges, latency\n"
    "                             summary + histogram)\n"
    "  windows                    prints `key value` lines of the served\n"
    "                             ring: window size/sequence/decay and\n"
    "                             per-window counts, oldest first (fails\n"
    "                             unless the daemon serves a windowed\n"
    "                             model: --windows W --window N)\n"
    "  snapshot                   forces one snapshot rotation; prints the\n"
    "                             sequence number written\n"
    "  shutdown                   asks the daemon to exit cleanly\n"
    "\n"
    "flags:\n"
    "  --socket PATH   daemon Unix-domain socket\n"
    "  --connect H:P   daemon TCP address, e.g. 127.0.0.1:9090 (exactly\n"
    "                  one of --socket/--connect; same protocol, same\n"
    "                  answers on both transports)\n"
    "  --ids LIST      comma-separated uint64 keys for query\n"
    "  --trace CSV     `id,text` trace; ids feed the request (text is\n"
    "                  not transmitted — serving is key-only)\n"
    "  --batch B       keys per request frame (default 4096)\n"
    "  --k N           heavy hitters to request for topk (default 10)\n"
    "\n"
    "wire protocol + error codes: docs/OPERATIONS.md\n";

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage(std::FILE* out) {
  std::fputs(kUsageText, out);
  return out == stdout ? 0 : 2;
}

struct Args {
  std::string verb;
  std::string target;  // Unix socket path or TCP host:port.
  std::string ids;
  std::string trace;
  size_t batch = 4096;
  uint32_t k = 10;
};

Result<Args> Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](const char* name) -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(std::string("flag needs a value: ") +
                                       name);
      }
      return std::string(argv[++i]);
    };
    if (arg == "--socket" || arg == "--connect") {
      auto value = need_value(arg.c_str());
      if (!value.ok()) return value.status();
      if (!args.target.empty()) {
        return Status::InvalidArgument(
            "pass exactly one of --socket / --connect");
      }
      args.target = value.value();
    } else if (arg == "--ids") {
      auto value = need_value("--ids");
      if (!value.ok()) return value.status();
      args.ids = value.value();
    } else if (arg == "--trace") {
      auto value = need_value("--trace");
      if (!value.ok()) return value.status();
      args.trace = value.value();
    } else if (arg == "--batch") {
      auto value = need_value("--batch");
      if (!value.ok()) return value.status();
      char* end = nullptr;
      args.batch = std::strtoull(value.value().c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || args.batch == 0) {
        return Status::InvalidArgument("--batch must be a positive integer");
      }
    } else if (arg == "--k") {
      auto value = need_value("--k");
      if (!value.ok()) return value.status();
      char* end = nullptr;
      const unsigned long long k = std::strtoull(value.value().c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || k == 0 || k > UINT32_MAX) {
        return Status::InvalidArgument("--k must be a positive u32");
      }
      args.k = static_cast<uint32_t>(k);
    } else if (arg.rfind("--", 0) == 0) {
      return Status::InvalidArgument("unknown flag: " + arg);
    } else if (args.verb.empty()) {
      args.verb = arg;
    } else {
      return Status::InvalidArgument("unexpected argument: " + arg);
    }
  }
  if (args.verb.empty()) return Status::InvalidArgument("missing verb");
  if (args.target.empty()) {
    return Status::InvalidArgument("--socket or --connect is required");
  }
  return args;
}

Result<std::vector<uint64_t>> KeysOf(const Args& args, bool distinct) {
  std::vector<uint64_t> keys;
  if (!args.ids.empty()) {
    size_t at = 0;
    while (at <= args.ids.size()) {
      const size_t comma = args.ids.find(',', at);
      const std::string token =
          args.ids.substr(at, comma == std::string::npos ? std::string::npos
                                                         : comma - at);
      if (token.empty() ||
          token.find_first_not_of("0123456789") != std::string::npos) {
        return Status::InvalidArgument("--ids needs uint64s, got: " + token);
      }
      try {
        // std::stoull throws out_of_range where strtoull would silently
        // saturate to UINT64_MAX and query the wrong key.
        keys.push_back(std::stoull(token));
      } catch (const std::exception&) {
        return Status::InvalidArgument("--ids value out of uint64 range: " +
                                       token);
      }
      if (comma == std::string::npos) break;
      at = comma + 1;
    }
  } else if (!args.trace.empty()) {
    auto trace = stream::ReadTraceCsv(args.trace);
    if (!trace.ok()) return trace.status();
    keys.reserve(trace.value().size());
    for (const auto& record : trace.value()) keys.push_back(record.id);
  } else {
    return Status::InvalidArgument("query/ingest need --ids or --trace");
  }
  if (distinct) {
    // First-seen order, matching the offline query verb's output.
    std::vector<uint64_t> ordered;
    ordered.reserve(keys.size());
    std::unordered_set<uint64_t> seen;
    for (uint64_t key : keys) {
      if (seen.insert(key).second) ordered.push_back(key);
    }
    return ordered;
  }
  return keys;
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h" || arg == "help") {
      return Usage(stdout);
    }
  }
  auto parsed = Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return Usage(stderr);
  }
  Args args = parsed.value();
  // The client library splits oversized spans itself; clamping --batch
  // here just keeps the printed request sizes honest.
  if (args.batch > server::kMaxKeysPerFrame) {
    args.batch = server::kMaxKeysPerFrame;
  }

  auto client = server::Client::Connect(args.target);
  if (!client.ok()) return Fail(client.status());

  if (args.verb == "ping") {
    const Status status = client.value().Ping();
    if (!status.ok()) return Fail(status);
    std::printf("pong\n");
    return 0;
  }
  if (args.verb == "query") {
    auto keys = KeysOf(args, /*distinct=*/true);
    if (!keys.ok()) return Fail(keys.status());
    std::printf("id,estimate\n");
    std::vector<double> estimates;
    for (size_t base = 0; base < keys.value().size(); base += args.batch) {
      const size_t block =
          std::min(args.batch, keys.value().size() - base);
      const Status status = client.value().Query(
          Span<const uint64_t>(keys.value().data() + base, block),
          estimates);
      if (!status.ok()) return Fail(status);
      for (size_t i = 0; i < block; ++i) {
        std::printf("%llu,%.2f\n",
                    static_cast<unsigned long long>(keys.value()[base + i]),
                    estimates[i]);
      }
    }
    return 0;
  }
  if (args.verb == "ingest") {
    auto keys = KeysOf(args, /*distinct=*/false);
    if (!keys.ok()) return Fail(keys.status());
    uint64_t total = 0;
    for (size_t base = 0; base < keys.value().size(); base += args.batch) {
      const size_t block =
          std::min(args.batch, keys.value().size() - base);
      auto acked = client.value().Ingest(
          Span<const uint64_t>(keys.value().data() + base, block));
      if (!acked.ok()) return Fail(acked.status());
      total = acked.value();
    }
    std::printf("ingested %zu arrivals (server total this run: %llu)\n",
                keys.value().size(),
                static_cast<unsigned long long>(total));
    return 0;
  }
  if (args.verb == "stats") {
    auto stats = client.value().Stats();
    if (!stats.ok()) return Fail(stats.status());
    const server::ServerStatsSnapshot& s = stats.value();
    std::printf("items_ingested %llu\n",
                static_cast<unsigned long long>(s.items_ingested));
    std::printf("model_total_items %llu\n",
                static_cast<unsigned long long>(s.model_total_items));
    std::printf("queries_served %llu\n",
                static_cast<unsigned long long>(s.queries_served));
    std::printf("query_requests %llu\n",
                static_cast<unsigned long long>(s.query_requests));
    std::printf("ingest_requests %llu\n",
                static_cast<unsigned long long>(s.ingest_requests));
    std::printf("sessions_accepted %llu\n",
                static_cast<unsigned long long>(s.sessions_accepted));
    std::printf("snapshots_written %llu\n",
                static_cast<unsigned long long>(s.snapshots_written));
    std::printf("uptime_seconds %.3f\n", s.uptime_seconds);
    std::printf("query_p50_micros %.1f\n", s.query_p50_micros);
    std::printf("query_p99_micros %.1f\n", s.query_p99_micros);
    std::printf("snapshot_age_seconds %.3f\n", s.snapshot_age_seconds);
    return 0;
  }
  if (args.verb == "topk") {
    std::vector<sketch::HeavyHitter> hitters;
    const Status status = client.value().TopK(args.k, hitters);
    if (!status.ok()) return Fail(status);
    std::printf("%s\n", sketch::kHeavyHitterCsvHeader);
    for (const sketch::HeavyHitter& hitter : hitters) {
      std::printf("%s\n", sketch::HeavyHitterCsvRow(hitter).c_str());
    }
    return 0;
  }
  if (args.verb == "metrics") {
    std::string text;
    const Status status = client.value().Metrics(text);
    if (!status.ok()) return Fail(status);
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  if (args.verb == "windows") {
    auto window_stats = client.value().WindowStats();
    if (!window_stats.ok()) return Fail(window_stats.status());
    const server::WindowStatsSnapshot& w = window_stats.value();
    std::printf("num_windows %zu\n", w.window_counts.size());
    std::printf("window_items %llu\n",
                static_cast<unsigned long long>(w.window_items));
    std::printf("decay %.6f\n", w.decay);
    std::printf("window_sequence %llu\n",
                static_cast<unsigned long long>(w.window_sequence));
    std::printf("items_in_current_window %llu\n",
                static_cast<unsigned long long>(w.items_in_current_window));
    std::string counts;
    for (size_t i = 0; i < w.window_counts.size(); ++i) {
      if (i > 0) counts += ',';
      counts += std::to_string(w.window_counts[i]);
    }
    std::printf("window_counts %s\n", counts.c_str());
    return 0;
  }
  if (args.verb == "snapshot") {
    auto sequence = client.value().Snapshot();
    if (!sequence.ok()) return Fail(sequence.status());
    std::printf("snapshot %llu written\n",
                static_cast<unsigned long long>(sequence.value()));
    return 0;
  }
  if (args.verb == "shutdown") {
    const Status status = client.value().Shutdown();
    if (!status.ok()) return Fail(status);
    std::printf("shutdown acknowledged\n");
    return 0;
  }
  std::fprintf(stderr, "error: unknown verb: %s\n", args.verb.c_str());
  return Usage(stderr);
}

}  // namespace
}  // namespace opthash::cli

int main(int argc, char** argv) { return opthash::cli::Main(argc, argv); }
