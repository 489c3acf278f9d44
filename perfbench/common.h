// Shared plumbing of the serving benchmark: arguments, clocks, summary
// statistics, the input fingerprint, the run stamp, the span recorder
// and the result line.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/ranking.h"
#include "metric/knn.h"
#include "oracle.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes, every check, a run of about a second.
  bool smoke = false;
  /// Generate the inputs, print their fingerprint and stop.
  bool fingerprint_only = false;
  /// Scratch space inside the checkout (snapshots, spans).
  std::string work_dir = ".bench_build/perfbench-work";
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile, q in [0, 1].
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Percentiles of one latency series, taken per block of `block`
/// consecutive samples and summarized as the median over blocks: a
/// burst of interference from outside the process moves a few blocks,
/// not the median, and memory stays one block whatever the run length.
class BlockPercentiles {
 public:
  explicit BlockPercentiles(size_t block) : block_(block) {
    samples_.reserve(block);
  }
  void Add(double x) {
    samples_.push_back(x);
    if (samples_.size() == block_) Close();
  }
  /// Median over closed blocks of each block's q-th percentile; a run
  /// too short to close one block uses its partial block.
  double Get(double q) {
    if (p50_.empty()) Close();
    return Median(q == 0.5 ? p50_ : p90_);
  }

 private:
  void Close() {
    if (samples_.empty()) return;
    p50_.push_back(Percentile(samples_, 0.5));
    p90_.push_back(Percentile(samples_, 0.9));
    samples_.clear();
  }
  size_t block_;
  std::vector<double> samples_;
  std::vector<double> p50_, p90_;
};

/// Moves the calling thread over the CPUs it may use, one at a time.
/// On a machine whose CPUs are shared with other guests, each CPU runs
/// at its own and changing speed; a run that visits them all in turn
/// measures their mix instead of whichever one the scheduler picked.
/// The destructor restores the thread's original affinity.
class CpuRotation {
 public:
  /// Time on one CPU before moving to the next.
  static constexpr int64_t kSliceNs = 250'000'000;

  explicit CpuRotation(size_t start = 0) : next_(start) {
    CPU_ZERO(&allowed_);
    sched_getaffinity(0, sizeof(allowed_), &allowed_);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
    Move();
  }
  ~CpuRotation() { sched_setaffinity(0, sizeof(allowed_), &allowed_); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves on once the current CPU has had its slice.
  void Tick() {
    if (NowNs() - moved_ns_ >= kSliceNs) Move();
  }

 private:
  void Move() {
    moved_ns_ = NowNs();
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_;
  int64_t moved_ns_ = 0;
};

/// Order-sensitive 64-bit hash for the input fingerprint (splitmix64
/// finalizer over a running state; stable across platforms).
class Fingerprint {
 public:
  void Add(uint64_t x) {
    state_ = Mix(state_ ^ (x + 0x9e3779b97f4a7c15ull + (state_ << 6)));
  }
  void AddRows(const topk::RankingStore& store) {
    Add(store.size());
    for (uint32_t item : store.flat_items()) Add(item);
  }
  void AddItems(Items items) {
    Add(items.size());
    for (uint32_t item : items) Add(item);
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(state_));
    return buf;
  }
  static uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_ = 0x243f6a8885a308d3ull;
};

/// Deterministic sub-seed for one input stream of a workload.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Fingerprint::Mix(seed * 0x100000001b3ull + stream) | 1;
}

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

/// Prints the CPU, core count, compiler, build flags and kernel
/// backends as "stamp ..." lines.
void PrintStamp();

/// Copies a RankingStore's rows into the oracle's own table.
inline void AppendRows(const topk::RankingStore& store, Rows* rows) {
  rows->k = store.k();
  for (topk::RankingId id = 0; id < store.size(); ++id) {
    rows->Append(store.view(id).items());
  }
}

/// A library k-NN answer in the oracle's terms.
inline std::vector<Near> ToNear(const std::vector<topk::Neighbor>& got) {
  std::vector<Near> out;
  for (const topk::Neighbor& n : got) out.push_back(Near{n.distance, n.id});
  return out;
}

/// In-memory spans written out when the run ends (one file per
/// workload, replaced by the next traced run). A span's parent is
/// the index of its parent span (-1 for a root); spans of one request
/// share its request id. Replay spans run after their parent's call on
/// the same inputs and are linked to it by parent, so a facade's self
/// time is its span minus its replayed children.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    uint64_t request;
    double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
  };

  /// Root spans kept per recorder: a run of tiny requests makes
  /// millions of calls, and the spans of the first ones suffice.
  static constexpr size_t kMaxRootSpans = 50000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t request) {
    if (!enabled_ || (parent < 0 && roots_ == kMaxRootSpans)) return -1;
    if (parent < 0) ++roots_;
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  /// Appends another recorder's spans (one per client thread).
  void Absorb(const Tracer& other) {
    const int64_t base = static_cast<int64_t>(spans_.size());
    for (Span span : other.spans_) {
      if (span.parent >= 0) span.parent += base;
      spans_.push_back(span);
    }
  }
  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(int64_t id) const { return spans_[static_cast<size_t>(id)]; }

  /// Writes one JSON object per span.
  bool Write(const std::string& path) const {
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  size_t roots_ = 0;
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one workload run reports. `end_to_end` comes from the timed
/// phase; `per_layer` only from a traced run.
struct Report {
  bool correct = true;
  std::string error;  // first wrong answer, when !correct
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
