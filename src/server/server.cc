#include "server/server.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "io/bytes.h"
#include "server/socket_io.h"
#include "server/tcp_listener.h"
#include "sketch/kernels/simd_dispatch.h"

#include <unistd.h>

namespace opthash::server {

namespace {

/// Per-session server-side state living on the owning event loop: the
/// model's query scratch plus the decode/encode buffers every request
/// reuses (warm sessions allocate nothing).
struct ServingSession : EventLoop::SessionState {
  std::unique_ptr<ServedModel::QueryContext> context;
  std::vector<uint64_t> keys;
  std::vector<double> estimates;
  std::vector<sketch::HeavyHitter> hitters;
};

}  // namespace

Status ServerConfig::Validate() const {
  if (socket_path.empty() && listen_address.empty()) {
    return Status::InvalidArgument(
        "server needs a transport: a Unix socket path and/or a TCP "
        "host:port listen address");
  }
  if (!listen_address.empty()) {
    OPTHASH_IO_RETURN_IF_ERROR(ParseHostPort(listen_address).status());
  }
  OPTHASH_IO_RETURN_IF_ERROR(ingest.Validate());
  OPTHASH_IO_RETURN_IF_ERROR(rotation.Validate());
  if (backlog < 1 || accept_poll_millis < 1) {
    return Status::InvalidArgument(
        "backlog and accept poll must be >= 1");
  }
  if (max_connections < 1) {
    return Status::InvalidArgument("connection limit must be >= 1");
  }
  EventLoopConfig loop;
  loop.poll_millis = accept_poll_millis;
  loop.idle_timeout_seconds = idle_timeout_seconds;
  loop.max_write_buffer = max_write_buffer;
  return loop.Validate();
}

Server::Server(ServerConfig config, std::unique_ptr<ServedModel> model)
    : config_(std::move(config)), model_(std::move(model)) {
  rotator_ = std::make_unique<SnapshotRotator>(
      config_.rotation, [this] { return items_ingested_.load(); },
      [this](const std::string& path) {
        // Serialization shares the read side with queries: rotation never
        // blocks the read path and never observes a half-applied ingest
        // block (ingest holds the lock exclusively).
        std::shared_lock<std::shared_mutex> lock(model_mutex_);
        return model_->SaveSnapshot(path);
      });
}

Server::~Server() { RequestShutdown(); }

Status Server::Start() {
  OPTHASH_CHECK_MSG(!running_.load(), "Server::Start called twice");
  OPTHASH_IO_RETURN_IF_ERROR(config_.Validate());
  if (config_.rotation.enabled() && model_->ReadOnly()) {
    return Status::FailedPrecondition(
        "snapshot rotation requires a mutable model; the mapped view is "
        "read-only (drop --snapshot-dir or --mmap)");
  }
  OPTHASH_IO_RETURN_IF_ERROR(rotator_->Start());

  // Bind whatever transports the config asked for; failure past this
  // point must unwind everything already started.
  auto fail = [this](Status status) {
    if (listen_fd_ >= 0) {
      CloseSocket(listen_fd_);
      listen_fd_ = -1;
      ::unlink(config_.socket_path.c_str());
    }
    if (tcp_listen_fd_ >= 0) {
      CloseSocket(tcp_listen_fd_);
      tcp_listen_fd_ = -1;
    }
    rotator_->Stop();
    return status;
  };
  if (!config_.socket_path.empty()) {
    auto unix_fd = ListenUnix(config_.socket_path, config_.backlog);
    if (!unix_fd.ok()) return fail(unix_fd.status());
    listen_fd_ = unix_fd.value();
  }
  if (!config_.listen_address.empty()) {
    auto address = ParseHostPort(config_.listen_address);
    if (!address.ok()) return fail(address.status());
    auto tcp = ListenTcp(address.value(), config_.backlog);
    if (!tcp.ok()) return fail(tcp.status());
    tcp_listen_fd_ = tcp.value().fd;
    tcp_port_ = tcp.value().port;
  }

  EventLoopConfig loop_config;
  loop_config.poll_millis = config_.accept_poll_millis;
  loop_config.idle_timeout_seconds = config_.idle_timeout_seconds;
  loop_config.max_write_buffer = config_.max_write_buffer;
  pool_ = std::make_unique<EventLoopPool>(
      config_.event_threads, loop_config,
      [this]() -> std::unique_ptr<EventLoop::SessionState> {
        auto session = std::make_unique<ServingSession>();
        session->context = model_->NewQueryContext();
        return session;
      },
      [this](EventLoop::SessionState& state, Span<const uint8_t> payload,
             std::vector<uint8_t>& response) {
        auto& session = static_cast<ServingSession&>(state);
        return HandleRequest(payload, *session.context, session.keys,
                             session.estimates, session.hitters, response);
      });
  const Status pool_started = pool_->Start();
  if (!pool_started.ok()) return fail(pool_started);

  stop_.store(false);
  running_.store(true, std::memory_order_release);
  uptime_.Restart();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Wait() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] { return stop_.load(); });
}

void Server::SignalStop() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    stop_.store(true);
  }
  shutdown_cv_.notify_all();
}

void Server::RequestShutdown() {
  // Signal wakers, Wait() callers and the destructor may all race here;
  // the teardown below must run exactly once at a time.
  std::lock_guard<std::mutex> call_lock(shutdown_call_mutex_);
  const bool was_stopped = stop_.load();
  SignalStop();
  if (was_stopped && !accept_thread_.joinable() && listen_fd_ < 0 &&
      tcp_listen_fd_ < 0) {
    return;  // Fully shut down already (or never started).
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Teardown failures are counted (teardown_errors) AND logged: a close
  // that fails leaks the fd, a failed unlink leaves a stale socket file
  // that blocks the next daemon's bind. Neither aborts the shutdown —
  // the rest of the teardown must still run — but neither may vanish.
  if (listen_fd_ >= 0) {
    if (!CloseSocket(listen_fd_)) {
      teardown_errors_.fetch_add(1);
      std::fprintf(stderr, "opthash_serve: close(unix listener): %s\n",
                   std::strerror(errno));
    }
    listen_fd_ = -1;
    if (::unlink(config_.socket_path.c_str()) != 0 && errno != ENOENT) {
      teardown_errors_.fetch_add(1);
      std::fprintf(stderr, "opthash_serve: unlink %s: %s\n",
                   config_.socket_path.c_str(), std::strerror(errno));
    }
  }
  if (tcp_listen_fd_ >= 0) {
    if (!CloseSocket(tcp_listen_fd_)) {
      teardown_errors_.fetch_add(1);
      std::fprintf(stderr, "opthash_serve: close(tcp listener): %s\n",
                   std::strerror(errno));
    }
    tcp_listen_fd_ = -1;
  }
  // The pool flushes pending replies best-effort, closes every session
  // and joins its loop threads.
  if (pool_) pool_->Stop();
  rotator_->Stop();
  running_.store(false, std::memory_order_release);
}

size_t Server::connections() const {
  return pool_ ? pool_->connections() : 0;
}

uint64_t Server::sessions_closed_idle() const {
  return pool_ ? pool_->closed_idle() : 0;
}

uint64_t Server::sessions_closed_backpressure() const {
  return pool_ ? pool_->closed_backpressure() : 0;
}

void Server::AcceptLoop() {
  int listeners[2];
  size_t listener_count = 0;
  if (listen_fd_ >= 0) listeners[listener_count++] = listen_fd_;
  const size_t tcp_index = listener_count;
  if (tcp_listen_fd_ >= 0) listeners[listener_count++] = tcp_listen_fd_;
  std::vector<uint8_t> reject_frame;

  while (!stop_.load(std::memory_order_acquire)) {
    auto accepted = AcceptAnyWithTimeout(
        Span<const int>(listeners, listener_count),
        config_.accept_poll_millis);
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kNotFound) continue;
      if (stop_.load()) return;
      // Transient accept failures (ECONNABORTED on a reset handshake,
      // EMFILE under fd pressure) must not silently retire the accept
      // loop — a deaf daemon that still answers Wait() is the worst
      // failure mode. Log, back off briefly, keep accepting.
      std::fprintf(stderr, "opthash_serve: accept failed: %s\n",
                   accepted.status().ToString().c_str());
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.accept_poll_millis));
      continue;
    }
    const int fd = accepted.value().fd;
    if (stop_.load()) {
      CloseSocket(fd);
      return;
    }
    sessions_accepted_.fetch_add(1);
    if (pool_->connections() >= config_.max_connections) {
      // Clean rejection, not a hang: the over-limit client gets one
      // kError frame explaining itself, then the connection closes.
      sessions_rejected_.fetch_add(1);
      EncodeErrorResponse(
          Status::FailedPrecondition(
              "connection limit of " +
              std::to_string(config_.max_connections) + " reached"),
          reject_frame);
      (void)WriteAll(fd, Span<const uint8_t>(reject_frame.data(),
                                             reject_frame.size()));
      CloseSocket(fd);
      continue;
    }
    if (accepted.value().listener_index == tcp_index) SetTcpNoDelay(fd);
    const Status adopted = pool_->Adopt(fd);
    if (!adopted.ok()) CloseSocket(fd);
  }
}

bool Server::HandleRequest(Span<const uint8_t> payload,
                           ServedModel::QueryContext& context,
                           std::vector<uint64_t>& keys,
                           std::vector<double>& estimates,
                           std::vector<sketch::HeavyHitter>& hitters,
                           std::vector<uint8_t>& response) {
  auto type = PeekMessageType(payload);
  if (!type.ok()) {
    EncodeErrorResponse(type.status(), response);
    return false;
  }
  switch (type.value()) {
    case MessageType::kQuery: {
      Timer latency;
      const Status decoded =
          DecodeKeyRequest(payload, MessageType::kQuery, keys);
      if (!decoded.ok()) {
        EncodeErrorResponse(decoded, response);
        return false;
      }
      estimates.resize(keys.size());
      {
        std::shared_lock<std::shared_mutex> lock(model_mutex_);
        model_->EstimateBatch(
            context, Span<const uint64_t>(keys.data(), keys.size()),
            Span<double>(estimates.data(), estimates.size()));
      }
      EncodeEstimatesResponse(
          Span<const double>(estimates.data(), estimates.size()), response);
      query_requests_.fetch_add(1);
      queries_served_.fetch_add(keys.size());
      {
        std::lock_guard<std::mutex> lock(latency_mutex_);
        query_latency_.Record(latency.ElapsedSeconds() * 1e6);
      }
      return true;
    }
    case MessageType::kIngest: {
      const Status decoded =
          DecodeKeyRequest(payload, MessageType::kIngest, keys);
      if (!decoded.ok()) {
        EncodeErrorResponse(decoded, response);
        return false;
      }
      Status ingested;
      {
        std::unique_lock<std::shared_mutex> lock(model_mutex_);
        ingested = model_->Ingest(
            Span<const uint64_t>(keys.data(), keys.size()), config_.ingest);
      }
      if (!ingested.ok()) {
        EncodeErrorResponse(ingested, response);
        return true;  // Semantic failure; the session stays usable.
      }
      ingest_requests_.fetch_add(1);
      const uint64_t total =
          items_ingested_.fetch_add(keys.size()) + keys.size();
      EncodeAckResponse(total, response);
      return true;
    }
    case MessageType::kStats: {
      const Status decoded = DecodeEmptyMessage(payload, MessageType::kStats);
      if (!decoded.ok()) {
        EncodeErrorResponse(decoded, response);
        return false;
      }
      EncodeStatsResponse(StatsNow(), response);
      return true;
    }
    case MessageType::kPing: {
      const Status decoded = DecodeEmptyMessage(payload, MessageType::kPing);
      if (!decoded.ok()) {
        EncodeErrorResponse(decoded, response);
        return false;
      }
      EncodeEmptyMessage(MessageType::kPong, response);
      return true;
    }
    case MessageType::kSnapshot: {
      const Status decoded =
          DecodeEmptyMessage(payload, MessageType::kSnapshot);
      if (!decoded.ok()) {
        EncodeErrorResponse(decoded, response);
        return false;
      }
      auto sequence = rotator_->RotateNow();
      if (!sequence.ok()) {
        EncodeErrorResponse(sequence.status(), response);
        return true;
      }
      EncodeAckResponse(sequence.value(), response);
      return true;
    }
    case MessageType::kTopK: {
      Timer latency;
      auto k = DecodeTopKRequest(payload);
      if (!k.ok()) {
        EncodeErrorResponse(k.status(), response);
        return false;
      }
      // Clamp so the reply always fits one frame; the top of the order
      // is the same either way.
      const size_t want =
          std::min<size_t>(k.value(), kMaxHittersPerFrame);
      Status answered;
      {
        std::shared_lock<std::shared_mutex> lock(model_mutex_);
        answered = model_->TopK(context, want, hitters);
      }
      if (!answered.ok()) {
        // Unsupported artifact kind (or other semantic failure): the
        // session stays usable, exactly like a rejected ingest.
        EncodeErrorResponse(answered, response);
        return true;
      }
      EncodeTopKReply(
          Span<const sketch::HeavyHitter>(hitters.data(), hitters.size()),
          response);
      topk_requests_.fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(latency_mutex_);
        query_latency_.Record(latency.ElapsedSeconds() * 1e6);
      }
      return true;
    }
    case MessageType::kMetrics: {
      const Status decoded =
          DecodeEmptyMessage(payload, MessageType::kMetrics);
      if (!decoded.ok()) {
        EncodeErrorResponse(decoded, response);
        return false;
      }
      EncodeMetricsReply(RenderPrometheusMetrics(), response);
      return true;
    }
    case MessageType::kWindowStats: {
      const Status decoded =
          DecodeEmptyMessage(payload, MessageType::kWindowStats);
      if (!decoded.ok()) {
        EncodeErrorResponse(decoded, response);
        return false;
      }
      WindowStatsSnapshot window_stats;
      Status answered;
      {
        std::shared_lock<std::shared_mutex> lock(model_mutex_);
        answered = model_->WindowStats(window_stats);
      }
      if (!answered.ok()) {
        // Non-windowed artifact kind: clean semantic error, session
        // survives, exactly like an unsupported top-k.
        EncodeErrorResponse(answered, response);
        return true;
      }
      EncodeWindowStatsReply(window_stats, response);
      window_stats_requests_.fetch_add(1);
      return true;
    }
    case MessageType::kShutdown: {
      const Status decoded =
          DecodeEmptyMessage(payload, MessageType::kShutdown);
      if (!decoded.ok()) {
        EncodeErrorResponse(decoded, response);
        return false;
      }
      EncodeAckResponse(0, response);
      // Flag + wake only: the full shutdown (which joins the loop thread
      // this handler runs on) runs on whoever called Wait().
      SignalStop();
      return false;
    }
    default: {
      EncodeErrorResponse(
          Status::InvalidArgument(
              std::string("unexpected ") + MessageTypeName(type.value()) +
              " frame: not a request"),
          response);
      return false;
    }
  }
}

std::string Server::RenderPrometheusMetrics() const {
  std::string out;
  out.reserve(4096);
  const auto counter = [&out](const char* name, const char* help,
                              uint64_t value) {
    out += "# HELP opthash_";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE opthash_";
    out += name;
    out += " counter\nopthash_";
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };
  const auto gauge = [&out](const char* name, const char* help,
                            double value) {
    char number[32];
    std::snprintf(number, sizeof(number), "%.6f", value);
    out += "# HELP opthash_";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE opthash_";
    out += name;
    out += " gauge\nopthash_";
    out += name;
    out += ' ';
    out += number;
    out += '\n';
  };

  counter("items_ingested_total", "Arrivals accepted by this process.",
          items_ingested_.load());
  counter("queries_served_total", "Individual keys answered.",
          queries_served_.load());
  counter("query_requests_total", "Query frames handled.",
          query_requests_.load());
  counter("ingest_requests_total", "Ingest frames handled.",
          ingest_requests_.load());
  counter("topk_requests_total", "Top-k frames handled.",
          topk_requests_.load());
  counter("window_stats_requests_total", "Window-stats frames handled.",
          window_stats_requests_.load());
  counter("sessions_accepted_total", "Connections accepted.",
          sessions_accepted_.load());
  counter("sessions_rejected_total",
          "Connections rejected at the connection limit.",
          sessions_rejected_.load());
  counter("sessions_closed_idle_total",
          "Sessions closed by the idle timeout.", sessions_closed_idle());
  counter("sessions_closed_backpressure_total",
          "Sessions closed for unread reply backpressure.",
          sessions_closed_backpressure());
  counter("snapshots_written_total", "Snapshot rotations this run.",
          rotator_->rotations());
  counter("snapshot_failures_total",
          "Rotations that failed (save or rename error) this run.",
          rotator_->failed_rotations());
  counter("teardown_errors_total",
          "Listener close/unlink failures during shutdown.",
          teardown_errors_.load());

  gauge("connections", "Live sessions across both transports.",
        static_cast<double>(connections()));
  gauge("uptime_seconds", "Seconds since the daemon started.",
        uptime_.ElapsedSeconds());
  {
    std::shared_lock<std::shared_mutex> lock(model_mutex_);
    gauge("model_total_items",
          "Model-lifetime arrivals (0 when the artifact has no counter).",
          static_cast<double>(model_->TotalItems()));
  }
  gauge("snapshot_age_seconds",
        "Seconds since the last rotation (negative: none yet this run).",
        rotator_->LastRotationAgeSeconds());

  // Info-style gauge (constant 1, the state carried by the label): which
  // sketch kernel tier answers this daemon's batched queries. Operators
  // alert on an unexpected "scalar" after a fleet rollout.
  out +=
      "# HELP opthash_simd_tier_info Active sketch kernel tier "
      "(label `tier`: scalar or avx2).\n"
      "# TYPE opthash_simd_tier_info gauge\n"
      "opthash_simd_tier_info{tier=\"";
  out += sketch::kernels::KernelTierName(sketch::kernels::ActiveKernelTier());
  out += "\"} 1\n";

  double p50 = 0.0;
  double p99 = 0.0;
  uint64_t latency_count = 0;
  uint64_t latency_sum = 0;
  std::array<uint64_t, LatencyHistogram::kNumBuckets> latency_buckets{};
  {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    p50 = query_latency_.PercentileMicros(0.50);
    p99 = query_latency_.PercentileMicros(0.99);
    latency_count = query_latency_.count();
    latency_sum = query_latency_.sum_micros();
    for (size_t i = 0; i < latency_buckets.size(); ++i) {
      latency_buckets[i] = query_latency_.bucket_count(i);
    }
  }
  char number[32];
  out +=
      "# HELP opthash_query_latency_micros Server-side request latency "
      "(query and top-k frames).\n"
      "# TYPE opthash_query_latency_micros summary\n";
  std::snprintf(number, sizeof(number), "%.6f", p50);
  out += "opthash_query_latency_micros{quantile=\"0.5\"} ";
  out += number;
  out += '\n';
  std::snprintf(number, sizeof(number), "%.6f", p99);
  out += "opthash_query_latency_micros{quantile=\"0.99\"} ";
  out += number;
  out += '\n';
  out += "opthash_query_latency_micros_count ";
  out += std::to_string(latency_count);
  out += '\n';

  // The same log-linear buckets as a full Prometheus histogram, so a
  // scraper can compute any quantile itself instead of trusting the
  // server-side p50/p99 above. Cumulative `le` lines are emitted only
  // for occupied buckets (plus +Inf): `le` values still ascend and the
  // running count is still monotone, which is all the exposition format
  // requires, and it keeps a warm scrape body to a handful of lines
  // instead of 528.
  out +=
      "# HELP opthash_query_latency_histogram_micros Server-side request "
      "latency (query and top-k frames), log-linear buckets.\n"
      "# TYPE opthash_query_latency_histogram_micros histogram\n";
  uint64_t cumulative = 0;
  for (size_t i = 0; i < latency_buckets.size(); ++i) {
    if (latency_buckets[i] == 0) continue;
    cumulative += latency_buckets[i];
    out += "opthash_query_latency_histogram_micros_bucket{le=\"";
    out += std::to_string(LatencyHistogram::BucketUpperBoundMicros(i));
    out += "\"} ";
    out += std::to_string(cumulative);
    out += '\n';
  }
  out += "opthash_query_latency_histogram_micros_bucket{le=\"+Inf\"} ";
  out += std::to_string(latency_count);
  out += '\n';
  out += "opthash_query_latency_histogram_micros_sum ";
  out += std::to_string(latency_sum);
  out += '\n';
  out += "opthash_query_latency_histogram_micros_count ";
  out += std::to_string(latency_count);
  out += '\n';
  return out;
}

ServerStatsSnapshot Server::StatsNow() const {
  ServerStatsSnapshot stats;
  stats.items_ingested = items_ingested_.load();
  stats.queries_served = queries_served_.load();
  stats.query_requests = query_requests_.load();
  stats.ingest_requests = ingest_requests_.load();
  stats.sessions_accepted = sessions_accepted_.load();
  stats.snapshots_written = rotator_->rotations();
  stats.uptime_seconds = uptime_.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    stats.query_p50_micros = query_latency_.PercentileMicros(0.50);
    stats.query_p99_micros = query_latency_.PercentileMicros(0.99);
  }
  stats.snapshot_age_seconds = rotator_->LastRotationAgeSeconds();
  {
    std::shared_lock<std::shared_mutex> lock(model_mutex_);
    stats.model_total_items = model_->TotalItems();
  }
  return stats;
}

}  // namespace opthash::server
