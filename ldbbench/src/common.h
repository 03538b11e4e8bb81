// Shared pieces of the benchmark driver: arguments, the metric report,
// order statistics, the in-memory span tracer, and host/process probes.

#ifndef LDBBENCH_COMMON_H_
#define LDBBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ldbbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;      ///< artifacts (dumps, traces, reports)
  std::string server_bin;   ///< ldb_server executable (serve-mix)
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Path of an artifact of this run: <out>/<workload>-seed<N>[-trace]<suffix>.
std::string ArtifactPath(const Args& a, const std::string& suffix);

/// Median of `v`, the mean of the middle two for an even count (0 when empty).
double Median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1] (0 when empty).
double Percentile(std::vector<double> v, double p);

/// Everything one run reports: the metrics the final JSON line carries, the
/// operation counts, and the output checks.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records an output check; a failing one makes the run incorrect.
  void Check(bool ok, const std::string& what);
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n = 1) { failed_ += n; }

  bool correct() const { return check_failures_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& check_failures() const {
    return check_failures_;
  }
  uint64_t checks() const { return checks_; }
  using MetricList =
      std::vector<std::pair<std::string, std::pair<double, std::string>>>;
  const MetricList& metrics() const { return metrics_; }
  void ReplaceMetrics(MetricList m) { metrics_ = std::move(m); }
  /// The value of metric `name`, or nullptr when it was never set.
  const double* Find(const std::string& name) const;
  /// The result object: correct, attempted, failed, metrics.
  std::string ResultJson() const;

  /// Free-form key/values for the provenance header (sizes, rates).
  std::vector<std::pair<std::string, std::string>> sizes;
  /// Human-readable tables printed before the result line.
  std::string text;

 private:
  MetricList metrics_;
  std::vector<std::string> check_failures_;
  uint64_t checks_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// One timed interval. Spans of one request share `req`; `parent` indexes
/// the enclosing span in the same Tracer (-1 for a request's root).
struct Span {
  const char* name;
  const char* layer;
  uint64_t req;
  int parent;
  double start_us;  ///< since the process-wide epoch
  double end_us;
};

/// Span recorder (one thread). Spans stay in memory; self time per span
/// name (duration minus the part covered by child spans) accumulates as
/// each request closes. Only the first `keep_requests` requests keep their
/// spans for the Chrome trace, so long runs stay bounded in memory.
class Tracer {
 public:
  static void SetEpoch(Clock::time_point t);
  static double Now();  ///< microseconds since the epoch
  static double ToUs(Clock::time_point t);

  explicit Tracer(size_t keep_requests = 400) : keep_requests_(keep_requests) {}

  /// Starts a request; returns the root span's index.
  int BeginRequest(const char* name, const char* layer, double start_us);
  /// Adds a finished span under `parent`.
  int Add(const char* name, const char* layer, int parent, double start_us,
          double end_us);
  int Open(const char* name, const char* layer, int parent);
  void Close(int span, double end_us = -1);
  /// Closes the current request: folds its spans into the per-name totals.
  void EndRequest();

  struct NameTotals {
    const char* layer = "";
    uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };

  /// Chrome trace-event JSON of the kept spans.
  std::string ChromeJson() const;
  /// Per-span-name and per-layer self-time table.
  std::string SelfTimeTable(const std::string& title) const;

 private:
  /// Sum of self time per layer over all requests, microseconds.
  std::map<std::string, double> LayerSelfUs() const;

  size_t keep_requests_;
  uint64_t next_req_ = 0;
  uint64_t requests_ = 0;
  std::vector<Span> spans_;   ///< open request's spans
  std::vector<Span> kept_;
  std::map<std::string, NameTotals> totals_;
};

/// Writes a traced run's artifacts: the Chrome trace of `t` and a text file
/// holding its self-time table followed by `extra`. Appends both to r->text.
void WriteTraceArtifacts(const Args& a, const Tracer& t,
                         const std::string& title, const std::string& extra,
                         Report* r);

// -- host speed --------------------------------------------------------------
//
// The shared host's speed drifts by a third or more over minutes (README.md),
// far more than a change to the engine is judged by. Every timing the
// benchmark reports is therefore scaled to a reference host speed: a fixed
// kernel of the benchmark's own (small allocations, string hashing, tree
// copies — the kind of work compile does) runs between the timed
// operations, and a timing taken while the kernel ran in r ms is reported
// as timing * kReferenceMs / r. The kernel is not engine code, so a change
// to the engine moves the scaled figures exactly as it moves the raw ones.

/// Kernel time, in ms, of the reference host the figures are scaled to.
constexpr double kReferenceMs = 0.6;
/// Kernel runs per CPU in one HostSpeed::SampleEveryCpu burst (about 10 ms,
/// long enough to meet the host's time slicing of the VM's CPUs).
constexpr int kBurstRuns = 16;

/// Wall time of one run of the reference kernel, in ms.
double ReferenceKernelMs();

/// Reference-kernel samples taken around a stretch of timed work.
class HostSpeed {
 public:
  /// Runs the kernel `n` times on this thread: the speed of the CPU the
  /// timed work runs on, for single-threaded work.
  void Sample(int n = 1);
  /// Runs the kernel `n` times on every usable CPU at once, one pinned
  /// thread each, as one sample: the speed of the whole machine, for work
  /// spread over it.
  void SampleEveryCpu(int n);
  /// Wall time spent sampling, so a timed window can leave it out.
  double spent_ms() const { return spent_ms_; }
  /// kReferenceMs over the median sample (1 without samples): multiply a
  /// time by it, divide a rate by it.
  double Scale() const;

 private:
  std::vector<double> ms_;
  double spent_ms_ = 0;
};

/// Runs `f` and returns its wall time in seconds, scaled by the host speed
/// read just before and after it; `raw_s` receives the unscaled time.
template <typename F>
double ScaledSeconds(F&& f, double* raw_s = nullptr) {
  HostSpeed host;
  for (int i = 0; i < 3; ++i) host.SampleEveryCpu(kBurstRuns);
  const Clock::time_point t0 = Clock::now();
  f();
  const double s = MsBetween(t0, Clock::now()) / 1e3;
  for (int i = 0; i < 3; ++i) host.SampleEveryCpu(kBurstRuns);
  if (raw_s != nullptr) *raw_s = s;
  return s * host.Scale();
}

// -- host / process probes ---------------------------------------------------

int UsableCpus();
std::string CpuModel();
/// Peak resident set of this process (MiB) since the last ResetSelfPeakRss.
double SelfPeakRssMb();
/// Restarts the peak resident set of this process from the current one, so
/// the peak a timed window reports leaves out set-up's transient memory.
void ResetSelfPeakRss();
/// Peak resident set (VmHWM) of process `pid` (MiB), -1 if unreadable.
double PidPeakRssMb(int pid);
/// utime + stime of process `pid` in seconds, -1 if unreadable.
double PidCpuSeconds(int pid);
/// CPU seconds (user + system) this process has used.
double SelfCpuSeconds();

/// Writes `body` to `path`; false on failure.
bool WriteFile(const std::string& path, const std::string& body);

std::string JsonEscape(const std::string& s);

}  // namespace ldbbench

#endif  // LDBBENCH_COMMON_H_
