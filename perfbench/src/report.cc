#include <dirent.h>
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "bench.h"
#include "sketch/kernels/simd_dispatch.h"

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

std::vector<int> PinProcess(size_t count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && cpus.size() < count; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  std::sort(cpus.begin(), cpus.end());
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int cpu : cpus) CPU_SET(cpu, &chosen);
  if (sched_setaffinity(0, sizeof(chosen), &chosen) != 0) cpus.clear();
  return cpus;
}

void PinThread(int cpu) { PinThread(std::vector<int>{cpu}); }

void PinThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  if (!cpus.empty()) (void)sched_setaffinity(0, sizeof(set), &set);
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& line) {
  std::printf("%s\n", line.c_str());
}

void Report::Fail(const std::string& why) {
  ++failed_;
  std::printf("FAIL: %s\n", why.c_str());
}

void Report::SetPinnedCpus(const std::vector<int>& cpus) {
  cpus_ = cpus;
  cpu_times_begin_ = ReadCpuTimes(cpus_);
}

std::vector<Report::CpuTimes> Report::ReadCpuTimes(
    const std::vector<int>& cpus) {
  std::vector<CpuTimes> times(2);
  std::ifstream stat("/proc/stat");
  std::string line;
  while (std::getline(stat, line) && line.rfind("cpu", 0) == 0) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    CpuTimes t;
    uint64_t value = 0;
    // user nice system idle iowait irq softirq steal.
    for (int i = 0; i < 8 && fields >> value; ++i) {
      t.total += value;
      if (i == 4) t.iowait = value;
      if (i == 7) t.steal = value;
    }
    const bool whole = name == "cpu";
    const bool pinned =
        !whole && std::find(cpus.begin(), cpus.end(),
                            std::atoi(name.c_str() + 3)) != cpus.end();
    if (!whole && !pinned) continue;
    CpuTimes& into = times[whole ? 0 : 1];
    into.total += t.total;
    into.iowait += t.iowait;
    into.steal += t.steal;
  }
  return times;
}

void Report::CalibrateHost() {
  // Two loops: a dependent integer chain (core speed), and filling and
  // scanning a 24 KB array (the L1/L2 traffic of a forest's vote count).
  constexpr int kIterations = 1 << 21;
  constexpr int kPasses = 512;
  std::vector<uint64_t> buffer(3072);
  for (int cpu : cpus_) {
    PinThread(cpu);
    uint64_t x = options_.seed;
    int64_t begin = NowNs();
    for (int i = 0; i < kIterations; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      x ^= x >> 29;
      asm volatile("" : "+r"(x));
    }
    chain_ns_.push_back(static_cast<double>(NowNs() - begin) / kIterations);
    begin = NowNs();
    for (int pass = 0; pass < kPasses; ++pass) {
      std::fill(buffer.begin(), buffer.end(), x);
      buffer[x % buffer.size()] += 1;
      x += *std::max_element(buffer.begin(), buffer.end());
      asm volatile("" : "+r"(x));
    }
    stream_ns_.push_back(static_cast<double>(NowNs() - begin) /
                         (kPasses * static_cast<double>(buffer.size())));
  }
  PinThread(cpus_);
}

std::string Report::HostState() const {
  const std::vector<CpuTimes> now = ReadCpuTimes(cpus_);
  const auto pct = [&](size_t which, uint64_t CpuTimes::*field) {
    if (cpu_times_begin_.size() != 2 || now.size() != 2) return 0.0;
    const CpuTimes& a = cpu_times_begin_[which];
    const CpuTimes& b = now[which];
    const uint64_t total = b.total - a.total;
    return total ? 100.0 * static_cast<double>(b.*field - a.*field) /
                       static_cast<double>(total)
                 : 0.0;
  };
  // Median over every calibration, and (slowest - fastest) / median.
  const auto spread = [](const std::vector<double>& ns) {
    if (ns.empty()) return std::pair<double, double>(0.0, 0.0);
    const double median = Median(ns);
    const auto [lo, hi] = std::minmax_element(ns.begin(), ns.end());
    return std::pair<double, double>(median, (*hi - *lo) / median);
  };
  const auto [chain, chain_range] = spread(chain_ns_);
  const auto [stream, stream_range] = spread(stream_ns_);
  char text[320];
  std::snprintf(text, sizeof(text),
                "{\"steal_pct\": %.3f, \"iowait_pct\": %.3f, "
                "\"pinned_steal_pct\": %.3f, \"chain_ns\": %.4f, "
                "\"chain_range\": %.3f, \"stream_ns\": %.4f, "
                "\"stream_range\": %.3f}",
                pct(0, &CpuTimes::steal), pct(0, &CpuTimes::iowait),
                pct(1, &CpuTimes::steal), chain, chain_range, stream,
                stream_range);
  return text;
}

std::string Report::Fingerprint() const {
  std::string cpus;
  for (int cpu : cpus_) cpus += (cpus.empty() ? "" : ",") + std::to_string(cpu);
  return "{\"workload\": \"" + JsonEscape(options_.workload) +
         "\", \"seed\": " + std::to_string(options_.seed) +
         ", \"trace\": " + (options_.trace ? "1" : "0") +
         ", \"cpu_model\": \"" + JsonEscape(CpuModel()) +
         "\", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"pinned_cpus\": \"" + cpus + "\", \"build_type\": \"" +
         PERFBENCH_BUILD_TYPE + "\", \"kernel_tier\": \"" +
         std::string(opthash::sketch::kernels::KernelTierName(
             opthash::sketch::kernels::ActiveKernelTier())) +
         "\", \"source\": \"" + JsonEscape(options_.source_id) +
         "\", \"host\": " + HostState() + "}";
}

void Report::Print() const {
  std::printf("fingerprint: %s\n", Fingerprint().c_str());
  // Every failure also fails the run, so the ratio is 0 in any accepted
  // run; it is printed for the reader, not declared as a bounded metric.
  std::printf("failed_op_ratio: %.6g (%llu of %llu requests and checks)\n",
              attempted_ ? static_cast<double>(failed_) /
                               static_cast<double>(attempted_)
                         : 0.0,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const Metric& m : metrics_) {
    std::printf("metric %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

opthash::Result<Connection> Connection::Open(const std::string& target) {
  auto client = opthash::server::Client::Connect(target);
  if (!client.ok()) return client.status();
  return Connection(std::move(client).value());
}

RoundTrip Connection::Query(Span<const uint64_t> keys,
                            std::vector<double>& out) {
  RoundTrip rt;
  rt.start_ns = NowNs();
  const opthash::Status status = client_.Query(keys, out);
  rt.end_ns = NowNs();
  ++query_requests;
  query_keys += keys.size();
  rt.ok = status.ok() && out.size() == keys.size();
  if (!rt.ok) {
    ++failed;
    last_error = status.ToString();
  }
  return rt;
}

RoundTrip Connection::Ingest(Span<const uint64_t> keys) {
  RoundTrip rt;
  rt.start_ns = NowNs();
  auto acked = client_.Ingest(keys);
  rt.end_ns = NowNs();
  ++ingest_requests;
  ingest_items += keys.size();
  rt.ok = acked.ok();
  if (rt.ok) last_ack = acked.value();
  if (!rt.ok) {
    ++failed;
    last_error = acked.status().ToString();
  }
  return rt;
}

void LatencyBatches::Add(double micros) {
  if (pending_.empty()) pending_.reserve(kLatencyBatch);
  pending_.push_back(micros);
  ++samples_;
  if (pending_.size() < kLatencyBatch) return;
  for (size_t base = 0; base < kLatencyBatch; base += kMedianBatch) {
    p50_.push_back(Percentile(
        std::vector<double>(pending_.begin() + base,
                            pending_.begin() + base + kMedianBatch),
        0.50));
  }
  p99_.push_back(Percentile(pending_, 0.99));
  pending_.clear();
}

std::vector<double> LatencyBatches::Batches(double q) const {
  const std::vector<double>& full = q < 0.9 ? p50_ : p99_;
  if (!full.empty() || pending_.empty()) return full;
  return {Percentile(pending_, q)};
}

void Traffic::AddQuery(const RoundTrip& rt, size_t keys) {
  query_keys_ += keys;
  query_ns_ += rt.end_ns - rt.start_ns;
  query_us.Add(rt.micros());
}

void Traffic::AddIngest(const RoundTrip& rt, size_t items) {
  ingest_items_ += items;
  ingest_ns_ += rt.end_ns - rt.start_ns;
  ingest_us.Add(rt.micros());
}

namespace {

double PerSecond(uint64_t units, int64_t ns) {
  return ns > 0 ? static_cast<double>(units) * 1e9 / static_cast<double>(ns)
                : 0.0;
}

}  // namespace

double Traffic::query_rate() const { return PerSecond(query_keys_, query_ns_); }

double Traffic::ingest_rate() const {
  return PerSecond(ingest_items_, ingest_ns_);
}

double QueryRate(const std::vector<const Traffic*>& connections) {
  double rate = 0.0;
  for (const Traffic* t : connections) rate += t->query_rate();
  return rate;
}

namespace {

void CheckCounters(const opthash::server::ServerStatsSnapshot& stats,
                   const std::vector<Connection*>& connections,
                   Report& report) {
  uint64_t query_requests = 0;
  uint64_t query_keys = 0;
  uint64_t ingest_requests = 0;
  uint64_t ingest_items = 0;
  for (const Connection* c : connections) {
    query_requests += c->query_requests;
    query_keys += c->query_keys;
    ingest_requests += c->ingest_requests;
    ingest_items += c->ingest_items;
    report.CountAttempted(c->query_requests + c->ingest_requests);
    for (uint64_t i = 0; i < c->failed; ++i) {
      report.Fail("request failed: " + c->last_error);
    }
  }
  const auto expect = [&report](const char* what, uint64_t server,
                                uint64_t client) {
    if (server != client) {
      report.Fail(std::string("server counts ") + std::to_string(server) +
                  " " + what + ", the clients sent " +
                  std::to_string(client));
    }
  };
  expect("query requests", stats.query_requests, query_requests);
  expect("query keys", stats.queries_served, query_keys);
  expect("ingest requests", stats.ingest_requests, ingest_requests);
  expect("ingested items", stats.items_ingested, ingest_items);
}

}  // namespace

opthash::server::ServerStatsSnapshot CloseEpoch(
    opthash::server::Server& server,
    const std::vector<Connection*>& connections, Span<const uint64_t> probe,
    std::vector<double> reference, uint64_t replay_mismatches,
    const Options& options, Report& report) {
  std::vector<double> served;
  if (options.corrupt_reference) reference[0] += 1.0;
  if (connections[0]->Query(probe, served).ok && served != reference) {
    report.Fail("probe set: served answers differ from the in-process "
                "reference");
  }
  if (replay_mismatches != 0) {
    report.Fail(std::to_string(replay_mismatches) +
                " traced requests disagree with the replayed layers");
  }
  const opthash::server::ServerStatsSnapshot stats = server.StatsNow();
  CheckCounters(stats, connections, report);
  return stats;
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t trim = values.size() / 4;
  double sum = 0.0;
  for (size_t i = trim; i < values.size() - trim; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * trim);
}

void AddServingMetrics(const std::vector<const Traffic*>& query,
                       const std::vector<const Traffic*>& ingest,
                       Report& report) {
  // p50: the mean over batches, which moves in proportion to the share of
  // time the host spent at each speed; p99: the interquartile mean.
  const auto pooled = [](const std::vector<const Traffic*>& traffic,
                         LatencyBatches Traffic::*kind, double q) {
    std::vector<double> batches;
    for (const Traffic* t : traffic) {
      const std::vector<double> b = (t->*kind).Batches(q);
      batches.insert(batches.end(), b.begin(), b.end());
    }
    if (q > 0.9) return InterquartileMean(std::move(batches));
    double sum = 0.0;
    for (double b : batches) sum += b;
    return batches.empty() ? 0.0 : sum / static_cast<double>(batches.size());
  };
  double ingest_rate = 0.0;
  for (const Traffic* t : ingest) ingest_rate += t->ingest_rate();
  report.Add("query_keys_per_s", QueryRate(query), "1/s");
  report.Add("query_p50_us", pooled(query, &Traffic::query_us, 0.50), "us");
  report.Add("query_p99_us", pooled(query, &Traffic::query_us, 0.99), "us");
  report.Add("ingest_items_per_s", ingest_rate, "1/s");
  report.Add("ingest_p99_us", pooled(ingest, &Traffic::ingest_us, 0.99), "us");
  const auto samples = [&report](const char* what,
                                 const std::vector<const Traffic*>& traffic,
                                 LatencyBatches Traffic::*kind) {
    uint64_t requests = 0;
    for (const Traffic* t : traffic) requests += (t->*kind).samples();
    report.Note(std::string("samples: ") + what + " " +
                std::to_string(requests) + " timed requests on " +
                std::to_string(traffic.size()) + " connection(s)");
  };
  samples("query", query, &Traffic::query_us);
  samples("ingest", ingest, &Traffic::ingest_us);
}

double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

std::vector<int> ThreadIds() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = readdir(dir)) {
    const int tid = std::atoi(entry->d_name);
    if (tid > 0) tids.push_back(tid);
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

uint64_t VoluntarySwitches(int tid) {
  std::ifstream status("/proc/self/task/" + std::to_string(tid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
      return std::strtoull(line.c_str() + 24, nullptr, 10);
    }
  }
  return 0;
}

bool PinTask(int tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

}  // namespace perfbench
