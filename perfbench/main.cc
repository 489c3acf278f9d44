// perfbench: the serving benchmark's binary.
//
//   perfbench --workload live_nyt|frontend_yago|snapshot_nyt --seed N
//             --seconds S --trace 0|1 [--smoke] [--fingerprint-only]
//             [--work-dir DIR]
//   perfbench --selftest
//
// Prints the run stamp, the input fingerprint, one "metric" line per
// measured value, and last a JSON object with every measured metric:
// the end-to-end ones from an untraced run, the per-layer ones from a
// traced run. Exits 1 on a wrong answer, 2 on a bad argument or a
// failed set-up. perfbench/run.py builds this binary and turns its
// output into the benchmark's result line.

#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "common.h"
#include "kernel/simd.h"
#include "oracle.h"
#include "storage/varint_simd.h"
#include "workloads.h"

namespace perfbench {

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

void PrintStamp() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::printf("stamp cpu=\"%s\" nproc=%u\n", cpu.c_str(),
              std::thread::hardware_concurrency());
  std::printf("stamp compiler=\"%s\" build_type=%s flags=\"%s\"\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_FLAGS);
  std::printf("stamp simd_backend=%s simd_lanes=%u decode_backend=%s\n",
              topk::kSimdBackendName, topk::kSimdLanes,
              topk::storage::kDecodeBackendName);
}

namespace {

/// (steal, total) jiffies of all CPUs from /proc/stat: time the
/// hypervisor gave this machine's CPUs to other guests.
std::pair<double, double> CpuSteal() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0, steal = 0;
  for (int i = 0; i < 8 && stat; ++i) {
    double x = 0;
    stat >> x;
    total += x;
    if (i == 7) steal = x;
  }
  return {steal, total};
}

void PrintJson(const Report& report, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload live_nyt|frontend_yago|"
               "snapshot_nyt --seed N --seconds S --trace 0|1 [--smoke] "
               "[--work-dir DIR] | --selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--selftest") {
      selftest = true;
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--fingerprint-only") {
      args.fingerprint_only = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::stoull(argv[++i]);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::stod(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--work-dir" && has_value) {
      args.work_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  // The oracle checks itself before it is trusted with any answer.
  const std::string broken = SelfTest();
  if (!broken.empty()) {
    std::fprintf(stderr, "oracle self-test failed: %s\n", broken.c_str());
    return 1;
  }
  if (selftest) {
    std::printf("oracle self-test passed\n");
    return 0;
  }
  PrintStamp();
  std::printf("workload %s seed=%llu seconds=%g trace=%d smoke=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? 1 : 0);
  const auto steal_before = CpuSteal();
  Report report;
  try {
    if (args.workload == "live_nyt") {
      report = RunLiveNyt(args);
    } else if (args.workload == "frontend_yago") {
      report = RunFrontendYago(args);
    } else if (args.workload == "snapshot_nyt") {
      report = RunSnapshotNyt(args);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (args.fingerprint_only) return 0;
  const auto steal_after = CpuSteal();
  const double jiffies = steal_after.second - steal_before.second;
  std::printf("stamp cpu_steal_share=%.4f\n",
              jiffies > 0 ? (steal_after.first - steal_before.first) / jiffies
                          : 0.0);
  for (const Metric& m : report.end_to_end) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : report.per_layer) {
    std::printf("layer %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!report.correct) {
    std::fprintf(stderr, "perfbench: wrong answer: %s\n", report.error.c_str());
  }
  std::fflush(stdout);
  PrintJson(report, args.trace ? report.per_layer : report.end_to_end);
  return report.correct ? 0 : 1;
}
