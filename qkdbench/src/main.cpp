// qkdbench: the end-to-end benchmark of the QKD stack.
//
//   qkdbench --workload <qframe_distill|engine_day|kms_fleet> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints one line of host context, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1 (which also writes
// the run's spans as Chrome trace JSON into --trace-dir). A failed
// correctness check exits 1 without a result; bad usage or a non-Release
// build exits 2.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

using qkdbench::Options;
using qkdbench::Report;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "qkdbench: %s\nusage: qkdbench --workload "
               "<qframe_distill|engine_day|kms_fleet> --seed <n> --seconds "
               "<s> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0))
        usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace takes 0 or 1");
      options.trace = value[0] == '1';
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return options;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Host context recorded with every result: a number means little without
/// the cores, build and load it was measured under.
void print_host(const Options& options) {
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
  std::printf(
      "{\"host\": {\"nproc\": %ld, \"build_type\": \"%s\", \"compiler\": "
      "\"%s\", \"loadavg\": [%.2f, %.2f, %.2f], \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}}\n",
      sysconf(_SC_NPROCESSORS_ONLN), QKDBENCH_BUILD_TYPE, compiler().c_str(),
      load[0], load[1], load[2], options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0);
}

void print_result(const Report& report) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  if (std::strcmp(QKDBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "qkdbench: refusing to report from a %s build\n",
                 QKDBENCH_BUILD_TYPE);
    return 2;
  }
  print_host(options);
  std::fflush(stdout);
  try {
    Report report;
    if (options.workload == "qframe_distill") {
      report = qkdbench::run_qframe_distill(options);
    } else if (options.workload == "engine_day") {
      report = qkdbench::run_engine_day(options);
    } else if (options.workload == "kms_fleet") {
      report = qkdbench::run_kms_fleet(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
    qkdbench::check(report.attempted > 0, "no operation was attempted");
    for (const auto& m : report.metrics)
      qkdbench::check(std::isfinite(m.value), m.name + " is not finite");
    print_result(report);
  } catch (const qkdbench::CheckFailed& failure) {
    std::fprintf(stderr, "qkdbench: correctness check failed: %s\n",
                 failure.what());
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "qkdbench: the stack threw: %s\n", error.what());
    return 1;
  }
  return 0;
}
