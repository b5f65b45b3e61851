// perfbench_driver — runs one benchmark workload against an in-process
// opthash server and prints its metrics; the last stdout line is the
// JSON result. Normally started by perfbench/run.py:
//
//   perfbench_driver --workload cms_wide|cms_mixed|learn_querylog
//                    --seed N --seconds S --trace 0|1
//                    [--work-dir DIR] [--trace-file PATH] [--source ID]
//                    [--smoke] [--corrupt-reference]
//
// Exit status: 0 when every answer and counter matched, 1 when the
// correctness gate tripped, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload cms_wide|cms_mixed|"
               "learn_querylog --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--trace-file PATH] [--source ID] "
               "[--smoke] [--corrupt-reference]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--corrupt-reference") {
      options.corrupt_reference = true;
    } else if (!has_value) {
      return Usage();
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = argv[++i];
    } else if (arg == "--trace-file") {
      options.trace_file = argv[++i];
    } else if (arg == "--source") {
      options.source_id = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!(options.seconds > 0.0)) return Usage();
  if (options.trace && options.trace_file.empty()) {
    options.trace_file = options.work_dir + "/spans.csv";
  }

  perfbench::Report report(options);
  int status = 0;
  if (options.workload == "cms_wide" || options.workload == "cms_mixed") {
    status = perfbench::RunCms(options, report);
  } else if (options.workload == "learn_querylog") {
    status = perfbench::RunLearnQueryLog(options, report);
  } else {
    return Usage();
  }
  if (report.attempted() == 0) report.Fail("no request was attempted");
  report.Print();
  return report.correct() && status == 0 ? 0 : 1;
}
