// opthash_serve — the long-running serving daemon: loads a model bundle
// or sketch checkpoint (mmap when supported), ingests live arrivals on
// writer threads through the sharded-ingest engine, answers batched
// frequency queries over a Unix-domain socket, and keeps itself durable
// through background snapshot rotation (atomic write-temp-then-rename,
// bounded retention). `kill -9` it at any instant and a restart with the
// same --snapshot-dir resumes from the last rotated checkpoint.
//
// The wire protocol, every flag, and the crash-recovery walkthrough are
// documented in docs/OPERATIONS.md; kUsageText below is the flag-level
// summary `--help` prints. Scripting companion: opthash_client.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "server/served_model.h"
#include "server/server.h"
#include "server/snapshot_rotator.h"
#include "sketch/kernels/simd_dispatch.h"
#include "tool_flags.h"

#include <unistd.h>

namespace opthash::cli {
namespace {

constexpr const char* kUsageText =
    "usage: opthash_serve (--socket /path/daemon.sock | --listen host:port)\n"
    "           (--in artifact | --sketch cms|countsketch|lcms|mg|ss)\n"
    "           [--mmap 1] [--snapshot-dir DIR] [--snapshot-keep K]\n"
    "           [--snapshot-every-items N] [--snapshot-every-seconds S]\n"
    "           [--threads N] [--block-size B]\n"
    "           [--max-connections N] [--idle-timeout S] [--event-threads N]\n"
    "           [--simd scalar|avx2]\n"
    "           [--width W] [--depth D] [--capacity K] [--buckets N]\n"
    "           [--seed S] [--conservative 1]\n"
    "\n"
    "Long-running frequency-estimation daemon: concurrent ingest +\n"
    "batched queries over a Unix-domain socket and/or a TCP listener\n"
    "(identical protocol on both), durable through rotated snapshots.\n"
    "Protocol spec and operations manual: docs/OPERATIONS.md.\n"
    "Drive it with opthash_client; stop it with SIGINT/SIGTERM or a\n"
    "client shutdown request.\n"
    "\n"
    "model selection (exactly one source):\n"
    "  --in FILE       serve an existing artifact: a model bundle (text\n"
    "                  or binary) or a single-sketch checkpoint; the\n"
    "                  content is auto-detected. AMS checkpoints are\n"
    "                  rejected (F2-only, no per-key queries)\n"
    "  --sketch T      start a fresh, empty sketch of kind T instead\n"
    "                  (geometry flags below)\n"
    "  If --snapshot-dir already holds rotated snapshots, the newest one\n"
    "  wins over both (crash recovery); --in/--sketch then only describe\n"
    "  the cold-start state.\n"
    "\n"
    "serving flags (at least one of --socket / --listen):\n"
    "  --socket PATH   Unix-domain socket to listen on (<= 107 bytes)\n"
    "  --listen H:P    TCP listen address, e.g. 127.0.0.1:9090 — port 0\n"
    "                  lets the kernel pick; the bound port is printed as\n"
    "                  a `listening on tcp:` line. No auth, no TLS: bind\n"
    "                  loopback or a trusted network only\n"
    "  --max-connections N  live sessions across both transports; one\n"
    "                  past the limit gets an error frame and is closed\n"
    "                  (default 1024)\n"
    "  --idle-timeout S  disconnect sessions with no protocol progress\n"
    "                  for S seconds, including peers that stop reading\n"
    "                  replies (default 0 = never)\n"
    "  --event-threads N  event-loop threads serving the sessions\n"
    "                  (default 0 = one per hardware thread)\n"
    "  --mmap 1        zero-copy read-only serving straight from the\n"
    "                  mapped file (binary bundles, cms checkpoints),\n"
    "                  with the same answers as a full load. Kinds\n"
    "                  without a mapped view fall back to a full load\n"
    "                  with a stderr notice; the mode actually used is\n"
    "                  always reported as a `load mode:` line. Read-only\n"
    "                  serving rejects ingest and snapshot requests\n"
    "  --threads N     writer threads per ingest request block, via the\n"
    "                  sharded-ingest engine; 0 = hardware concurrency\n"
    "                  (default 1)\n"
    "  --block-size B  trace items per worker dispatch block\n"
    "                  (default 65536)\n"
    "  --simd TIER     pin the sketch kernel tier (scalar|avx2)\n"
    "                  instead of auto-detecting the best one; unknown or\n"
    "                  unavailable tiers fail at startup. Equivalent env\n"
    "                  var: OPTHASH_SIMD (the flag wins). The active tier\n"
    "                  is printed as a `simd kernels:` line and exported\n"
    "                  as the opthash_simd_tier_info metric\n"
    "\n"
    "snapshot rotation (durability; see docs/OPERATIONS.md):\n"
    "  --snapshot-dir DIR        rotate checkpoints into DIR as\n"
    "                  snapshot-NNNNNN.bin via write-temp-then-rename;\n"
    "                  also the crash-recovery source at startup\n"
    "  --snapshot-every-items N  rotate after N newly ingested items\n"
    "                  (default 0 = off)\n"
    "  --snapshot-every-seconds S  rotate after S seconds (default 0 =\n"
    "                  off; with both triggers off only client snapshot\n"
    "                  requests rotate)\n"
    "  --snapshot-keep K         rotated files retained (default 4)\n"
    "\n"
    "fresh-sketch geometry (with --sketch; mirrors the snapshot verb):\n"
    "  --width W       counters per level, cms/countsketch (default 1024)\n"
    "  --depth D       levels, cms/countsketch/lcms (default 4)\n"
    "  --capacity K    tracked entries, mg/ss (default 256)\n"
    "  --buckets N     lcms total bucket budget (default 1024)\n"
    "  --seed S        hash seed (default 1)\n"
    "  --conservative 1  cms only: conservative update (default 0)\n"
    "\n"
    "windowed counting (with --sketch; counts over a sliding window\n"
    "of the last W*N arrivals instead of the whole stream):\n"
    "  --windows W     ring of W per-window sub-sketches (default 0 =\n"
    "                  plain lifetime counting)\n"
    "  --window N      advance the ring every N arrivals (required with\n"
    "                  --windows)\n"
    "  --decay L       per-window geometric weight L in (0,1]; < 1 turns\n"
    "                  estimates into exponentially decayed counts\n"
    "                  (default 1 = plain sliding window)\n";

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

volatile std::sig_atomic_t g_signal = 0;
void OnSignal(int signum) { g_signal = signum; }

Result<server::OpenedModel> LoadInitialModel(const Flags& flags,
                                             bool use_mmap) {
  // Crash recovery first: the newest rotated snapshot (if any) is the
  // authoritative state; --in/--sketch describe only the cold start.
  const std::string snapshot_dir = flags.Get("snapshot-dir", "");
  if (!snapshot_dir.empty()) {
    auto latest = server::SnapshotRotator::FindLatestSnapshot(snapshot_dir);
    if (latest.ok()) {
      std::fprintf(stderr, "resuming from %s\n", latest.value().c_str());
      return server::OpenServedModel(latest.value(), use_mmap);
    }
    if (latest.status().code() != StatusCode::kNotFound) {
      return latest.status();
    }
  }
  if (flags.Has("in")) {
    return server::OpenServedModel(flags.Get("in", ""), use_mmap);
  }
  if (flags.Has("sketch")) {
    if (use_mmap) {
      return Status::InvalidArgument(
          "--mmap serves an existing file; it cannot apply to a fresh "
          "--sketch");
    }
    server::FreshSketchSpec spec;
    spec.kind = flags.Get("sketch", "cms");
    const auto width = flags.GetUint("width", 1024);
    if (!width.ok()) return width.status();
    const auto depth = flags.GetUint("depth", 4);
    if (!depth.ok()) return depth.status();
    const auto capacity = flags.GetUint("capacity", 256);
    if (!capacity.ok()) return capacity.status();
    const auto buckets = flags.GetUint("buckets", 1024);
    if (!buckets.ok()) return buckets.status();
    const auto seed = flags.GetUint("seed", 1);
    if (!seed.ok()) return seed.status();
    const auto conservative = flags.GetUint("conservative", 0);
    if (!conservative.ok()) return conservative.status();
    const auto windows = flags.GetUint("windows", 0);
    if (!windows.ok()) return windows.status();
    const auto window_items = flags.GetUint("window", 0);
    if (!window_items.ok()) return window_items.status();
    const auto decay = flags.GetDouble("decay", 1.0);
    if (!decay.ok()) return decay.status();
    spec.windows = static_cast<size_t>(windows.value());
    spec.window_items = window_items.value();
    spec.decay = decay.value();
    spec.width = static_cast<size_t>(width.value());
    spec.depth = static_cast<size_t>(depth.value());
    spec.capacity = static_cast<size_t>(capacity.value());
    spec.buckets = static_cast<size_t>(buckets.value());
    spec.seed = seed.value();
    spec.conservative = conservative.value() != 0;
    auto model = server::CreateServedSketch(spec);
    if (!model.ok()) return model.status();
    server::OpenedModel opened;
    opened.model = std::move(model).value();
    return opened;
  }
  return Status::InvalidArgument(
      "nothing to serve: pass --in FILE or --sketch KIND (or point "
      "--snapshot-dir at rotated snapshots)");
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h" || arg == "help") {
      std::fputs(kUsageText, stdout);
      return 0;
    }
  }
  auto flags = ParseFlags(argc, argv, 1);
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n", flags.status().ToString().c_str());
    std::fputs(kUsageText, stderr);
    return 2;
  }
  if (!flags.value().Has("socket") && !flags.value().Has("listen")) {
    std::fputs("error: pass --socket PATH and/or --listen host:port\n",
               stderr);
    std::fputs(kUsageText, stderr);
    return 2;
  }

  // Kernel tier: --simd pins it (overriding OPTHASH_SIMD); otherwise a
  // typo'd environment override must fail the daemon loudly instead of
  // silently serving on the default tier.
  if (flags.value().Has("simd")) {
    const Status forced = sketch::kernels::ForceKernelTierByName(
        flags.value().Get("simd", ""));
    if (!forced.ok()) return Fail(forced);
  } else {
    const Status env_status = sketch::kernels::KernelEnvStatus();
    if (!env_status.ok()) return Fail(env_status);
  }
  std::fprintf(stderr, "simd kernels: %s\n",
               std::string(sketch::kernels::KernelTierName(
                               sketch::kernels::ActiveKernelTier()))
                   .c_str());

  server::ServerConfig config;
  config.socket_path = flags.value().Get("socket", "");
  config.listen_address = flags.value().Get("listen", "");
  const auto max_connections =
      flags.value().GetUint("max-connections", 1024);
  if (!max_connections.ok()) return Fail(max_connections.status());
  config.max_connections = static_cast<size_t>(max_connections.value());
  const auto idle_timeout = flags.value().GetDouble("idle-timeout", 0.0);
  if (!idle_timeout.ok()) return Fail(idle_timeout.status());
  config.idle_timeout_seconds = idle_timeout.value();
  const auto event_threads = flags.value().GetUint("event-threads", 0);
  if (!event_threads.ok()) return Fail(event_threads.status());
  config.event_threads = static_cast<size_t>(event_threads.value());
  const auto threads = flags.value().GetUint("threads", 1);
  if (!threads.ok()) return Fail(threads.status());
  const auto block_size = flags.value().GetUint("block-size", 1 << 16);
  if (!block_size.ok()) return Fail(block_size.status());
  config.ingest.num_threads = static_cast<size_t>(threads.value());
  config.ingest.block_size = static_cast<size_t>(block_size.value());
  config.rotation.dir = flags.value().Get("snapshot-dir", "");
  const auto every_items =
      flags.value().GetUint("snapshot-every-items", 0);
  if (!every_items.ok()) return Fail(every_items.status());
  const auto every_seconds =
      flags.value().GetDouble("snapshot-every-seconds", 0.0);
  if (!every_seconds.ok()) return Fail(every_seconds.status());
  const auto keep = flags.value().GetUint("snapshot-keep", 4);
  if (!keep.ok()) return Fail(keep.status());
  config.rotation.every_items = every_items.value();
  config.rotation.every_seconds = every_seconds.value();
  config.rotation.keep = static_cast<size_t>(keep.value());

  const auto mmap_flag = flags.value().GetUint("mmap", 0);
  if (!mmap_flag.ok()) return Fail(mmap_flag.status());
  const bool use_mmap = mmap_flag.value() != 0;

  auto opened = LoadInitialModel(flags.value(), use_mmap);
  if (!opened.ok()) return Fail(opened.status());
  if (use_mmap && !opened.value().mmap_used) {
    std::fprintf(stderr, "note: mmap unsupported for this artifact, "
                         "loading fully\n");
  }
  std::fprintf(stderr, "load mode: %s\n",
               opened.value().mmap_used ? "mmap" : "full");

  server::Server daemon(config, std::move(opened.value().model));
  const Status started = daemon.Start();
  if (!started.ok()) return Fail(started);
  if (!config.socket_path.empty()) {
    std::fprintf(stderr, "serving %s on %s%s\n", daemon.model().Kind(),
                 config.socket_path.c_str(),
                 daemon.model().ReadOnly() ? " (read-only)" : "");
  }
  if (!config.listen_address.empty()) {
    // The resolved port matters when --listen asked for port 0; scripts
    // parse this line to find the connect target.
    std::fprintf(stderr, "listening on tcp: %s (port %u)%s\n",
                 config.listen_address.c_str(),
                 static_cast<unsigned>(daemon.tcp_port()),
                 daemon.model().ReadOnly() ? " (read-only)" : "");
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);  // Peer resets must not kill the daemon.

  // A signal handler cannot safely notify the server's condition
  // variable, so a tiny waker thread polls the flag and converts it into
  // a RequestShutdown; Wait() returns on either shutdown source.
  std::thread signal_waker([&daemon] {
    while (daemon.running() && g_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (g_signal != 0) daemon.RequestShutdown();
  });
  daemon.Wait();
  daemon.RequestShutdown();
  signal_waker.join();

  const server::ServerStatsSnapshot stats = daemon.StatsNow();
  std::fprintf(stderr,
               "shutdown: %llu items ingested, %llu queries served, %llu "
               "snapshots written\n",
               static_cast<unsigned long long>(stats.items_ingested),
               static_cast<unsigned long long>(stats.queries_served),
               static_cast<unsigned long long>(stats.snapshots_written));
  return 0;
}

}  // namespace
}  // namespace opthash::cli

int main(int argc, char** argv) { return opthash::cli::Main(argc, argv); }
