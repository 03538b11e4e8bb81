#include "ldbbench/src/common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace ldbbench {

std::string ArtifactPath(const Args& a, const std::string& suffix) {
  return a.out_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) +
         (a.trace ? "-trace" : "") + suffix;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  return (*std::max_element(v.begin(), v.begin() + static_cast<long>(mid)) + upper) / 2;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  if (p <= 0) return v.front();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [n, m] : metrics_) {
    if (n == name) {
      m = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

const double* Report::Find(const std::string& name) const {
  for (const auto& [n, m] : metrics_) {
    if (n == name) return &m.first;
  }
  return nullptr;
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) check_failures_.push_back(what);
}

std::string Report::ResultJson() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) os << ", ";
    first = false;
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", std::isfinite(m.first) ? m.first : 0.0);
    os << "\"" << JsonEscape(name) << "\": {\"value\": " << num
       << ", \"unit\": \"" << JsonEscape(m.second) << "\"}";
  }
  os << "}}";
  return os.str();
}

// -- Tracer -------------------------------------------------------------------

namespace {
Clock::time_point g_epoch = Clock::now();
}  // namespace

void Tracer::SetEpoch(Clock::time_point t) { g_epoch = t; }
double Tracer::ToUs(Clock::time_point t) { return UsBetween(g_epoch, t); }
double Tracer::Now() { return ToUs(Clock::now()); }

int Tracer::BeginRequest(const char* name, const char* layer,
                         double start_us) {
  spans_.clear();
  ++next_req_;
  spans_.push_back({name, layer, next_req_, -1, start_us, start_us});
  return 0;
}

int Tracer::Add(const char* name, const char* layer, int parent,
                double start_us, double end_us) {
  uint64_t req = spans_.empty() ? 0 : spans_.front().req;
  spans_.push_back({name, layer, req, parent, start_us, end_us});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::Open(const char* name, const char* layer, int parent) {
  double now = Now();
  return Add(name, layer, parent, now, now);
}

void Tracer::Close(int span, double end_us) {
  spans_[static_cast<size_t>(span)].end_us = end_us < 0 ? Now() : end_us;
}

void Tracer::EndRequest() {
  if (spans_.empty()) return;
  std::vector<double> child_us(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    NameTotals& t = totals_[s.name];
    t.layer = s.layer;
    ++t.count;
    t.total_us += s.end_us - s.start_us;
    t.self_us += (s.end_us - s.start_us) - child_us[i];
  }
  if (requests_ < keep_requests_) {
    kept_.insert(kept_.end(), spans_.begin(), spans_.end());
  }
  ++requests_;
  spans_.clear();
}

std::string Tracer::ChromeJson() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char buf[512];
  for (const Span& s : kept_) {
    // One track per request: requests served concurrently overlap in time.
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %llu, "
                  "\"args\": {\"parent\": %d}}",
                  first ? "" : ",\n", s.name, s.layer, s.start_us,
                  s.end_us - s.start_us, static_cast<unsigned long long>(s.req),
                  s.parent);
    os << buf;
    first = false;
  }
  os << "\n]}\n";
  return os.str();
}

std::map<std::string, double> Tracer::LayerSelfUs() const {
  std::map<std::string, double> out;
  for (const auto& [name, t] : totals_) out[t.layer] += t.self_us;
  return out;
}

std::string Tracer::SelfTimeTable(const std::string& title) const {
  std::ostringstream os;
  double all_self = 0, roots = 0;
  for (const auto& [name, t] : totals_) all_self += t.self_us;
  // Root spans are the ones recorded once per request and named "request"
  // (every workload uses that name for its root).
  auto root = totals_.find("request");
  if (root != totals_.end()) roots = root->second.total_us;
  char buf[256];
  os << "== self time per span: " << title << " (" << requests_
     << " requests) ==\n";
  std::snprintf(buf, sizeof(buf), "%-9s %-28s %9s %12s %12s %10s %7s\n",
                "layer", "span", "count", "total_ms", "self_ms", "self_us/rq",
                "share");
  os << buf;
  std::vector<std::pair<std::string, NameTotals>> rows(totals_.begin(),
                                                       totals_.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    std::string la = a.second.layer, lb = b.second.layer;
    return la != lb ? la < lb : a.first < b.first;
  });
  const double per_rq = requests_ > 0 ? 1.0 / static_cast<double>(requests_) : 0;
  for (const auto& [name, t] : rows) {
    std::snprintf(buf, sizeof(buf),
                  "%-9s %-28s %9llu %12.3f %12.3f %10.2f %6.1f%%\n", t.layer,
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_us / 1e3, t.self_us / 1e3, t.self_us * per_rq,
                  all_self > 0 ? 100.0 * t.self_us / all_self : 0.0);
    os << buf;
  }
  os << "-- per layer --\n";
  for (const auto& [layer, us] : LayerSelfUs()) {
    std::snprintf(buf, sizeof(buf), "%-9s self %12.3f ms  %10.2f us/request  %6.1f%%\n",
                  layer.c_str(), us / 1e3, us * per_rq,
                  all_self > 0 ? 100.0 * us / all_self : 0.0);
    os << buf;
  }
  std::snprintf(buf, sizeof(buf),
                "account: sum of self times %.3f ms, sum of request spans "
                "%.3f ms, unaccounted %.6f ms\n",
                all_self / 1e3, roots / 1e3, (roots - all_self) / 1e3);
  os << buf;
  return os.str();
}

void WriteTraceArtifacts(const Args& a, const Tracer& t,
                         const std::string& title, const std::string& extra,
                         Report* r) {
  const std::string table = t.SelfTimeTable(title) + extra;
  const std::string trace_path = ArtifactPath(a, ".trace.json");
  const std::string table_path = ArtifactPath(a, ".layers.txt");
  if (!WriteFile(trace_path, t.ChromeJson()) || !WriteFile(table_path, table)) {
    throw std::runtime_error("cannot write trace artifacts under " + a.out_dir);
  }
  r->text += table;
  r->text += "trace: " + trace_path + " (chrome://tracing, ui.perfetto.dev)\n";
}

// -- host / process probes ----------------------------------------------------

int UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

double SelfPeakRssMb() { return PidPeakRssMb(static_cast<int>(getpid())); }

void ResetSelfPeakRss() {
  // "5" resets the peak resident set (VmHWM) to the current one.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PidPeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // "VmHWM:  1234 kB"
    }
  }
  return -1;
}

double PidCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double SelfCpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

namespace {

// Keeps the kernel's result alive; written from several threads at once.
std::atomic<uint64_t> g_reference_sink{0};

struct RefNode {
  std::string name;
  std::vector<std::shared_ptr<RefNode>> kids;
};

std::shared_ptr<RefNode> RefTree(uint64_t* x, int depth) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  auto n = std::make_shared<RefNode>();
  n->name = "v";
  n->name += std::to_string(*x % 997);
  if (depth > 0) {
    for (uint64_t k = 0; k < 2 + *x % 2; ++k) n->kids.push_back(RefTree(x, depth - 1));
  }
  return n;
}

// A renaming copy, like alpha-renaming a calculus term.
std::shared_ptr<RefNode> RefRename(const RefNode& n,
                                   std::unordered_map<std::string, int>* seen) {
  auto m = std::make_shared<RefNode>();
  m->name = n.name + "_" + std::to_string((*seen)[n.name]++);
  for (const auto& k : n.kids) m->kids.push_back(RefRename(*k, seen));
  return m;
}

}  // namespace

double ReferenceKernelMs() {
  const Clock::time_point t0 = Clock::now();
  uint64_t x = 88172645463325252ULL;
  uint64_t acc = 0;
  for (int rep = 0; rep < 4; ++rep) {
    std::shared_ptr<RefNode> tree = RefTree(&x, 6);
    std::unordered_map<std::string, int> seen;
    std::shared_ptr<RefNode> copy = RefRename(*RefRename(*tree, &seen), &seen);
    acc += seen.size() + copy->kids.size();
  }
  g_reference_sink.store(acc, std::memory_order_relaxed);
  return MsBetween(t0, Clock::now());
}

void HostSpeed::Sample(int n) {
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < n; ++i) ms_.push_back(ReferenceKernelMs());
  spent_ms_ += MsBetween(t0, Clock::now());
}

void HostSpeed::SampleEveryCpu(int n) {
  const Clock::time_point t0 = Clock::now();
  std::vector<int> cpus;
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown: one unpinned thread
  std::vector<std::exception_ptr> errors(cpus.size());
  std::vector<std::thread> pool;
  for (size_t k = 0; k < cpus.size(); ++k) {
    pool.emplace_back([&, k] {
      try {
        if (cpus[k] >= 0) {
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(cpus[k], &one);
          pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
        }
        for (int i = 0; i < n; ++i) ReferenceKernelMs();
      } catch (...) {
        errors[k] = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  // One sample: the burst's wall time per kernel run. A CPU the host stalls
  // during the burst lengthens it, as it would lengthen work spread over
  // every CPU; the median of single kernel times would hide short stalls.
  const double burst_ms = MsBetween(t0, Clock::now());
  ms_.push_back(burst_ms / n);
  spent_ms_ += burst_ms;
}

double HostSpeed::Scale() const {
  return ms_.empty() ? 1.0 : kReferenceMs / Median(ms_);
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) return false;
  out << body;
  return static_cast<bool>(out);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace ldbbench
