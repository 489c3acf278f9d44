// The three closed-loop serving workloads. Each generates its fixed
// collection and, from the seed, its op stream; prints their
// fingerprint; sets up the serving objects several times (setup_s is
// the median); runs whole rounds of the stream until the run length is
// used up; checks every answer; and in a traced run replays a sample
// through the lower layers.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "common.h"

namespace perfbench {

Report RunLiveNyt(const Args& args);
Report RunFrontendYago(const Args& args);
Report RunSnapshotNyt(const Args& args);

/// Runs `round(0)` untimed as the warm-up, then timed rounds 1, 2, ...
/// until `seconds` have passed at a round boundary, moving between CPUs
/// between rounds. Returns each timed round's wall time in seconds.
template <typename RoundFn>
std::vector<double> RunRounds(double seconds, RoundFn&& round) {
  CpuRotation rotation;
  round(size_t{0});
  std::vector<double> round_s;
  const int64_t start = NowNs();
  int64_t last = start;
  for (size_t r = 1; r == 1 || static_cast<double>(last - start) / 1e9 < seconds;
       ++r) {
    round(r);
    const int64_t now = NowNs();
    round_s.push_back(static_cast<double>(now - last) / 1e9);
    rotation.Tick();
    last = NowNs();
  }
  return round_s;
}

/// Median over rounds of each round's ops per second.
inline double MedianRate(const std::vector<double>& round_s, size_t ops) {
  std::vector<double> rates;
  for (const double s : round_s) rates.push_back(static_cast<double>(ops) / s);
  return Median(rates);
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
