#include <deque>
#include <stdexcept>

#include "ldbbench/src/stages.h"
#include "ldbbench/src/workloads.h"

namespace ldbbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"success_rate", "ratio"},
      {"latency_p50_ms", "ms"},
      {"latency_p95_ms", "ms"},
      {"throughput_qps", "1/s"},
      {"pa_ms", "ms"},
      {"pja_ms", "ms"},
      {"cb_ms", "ms"},
      {"pdeep_ms", "ms"},
      {"pscan_ms", "ms"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = [] {
    std::vector<MetricSpec> v = {
        {"oql.parse_us", "us"},
        {"oql.translate_us", "us"},
        {"core.normalize_us", "us"},
        {"core.unnest_us", "us"},
        {"core.simplify_us", "us"},
        {"core.typecheck_us", "us"},
        {"core.normalized_nodes", "count"},
        {"core.plan_ops", "count"},
        {"runtime.physical_us", "us"},
        {"runtime.slot_compile_us", "us"},
    };
    // Built names must outlive the catalog; a deque never moves them.
    static std::deque<std::string> pool;
    auto add = [&](std::string name, const char* unit) {
      pool.push_back(std::move(name));
      v.push_back({pool.back().c_str(), unit});
    };
    for (const NamedQuery& q : kAnalytic) {
      const std::string p = std::string("runtime.") + q.key + ".";
      add(p + "serial_ms", "ms");
      add(p + "speedup_x", "x");
      add(p + "ns_per_row", "ns");
      add(p + "rows", "count");
    }
    for (const MixStatement& s : kMix) {
      add(std::string("runtime.exec_ms.") + s.key, "ms");
    }
    v.insert(v.end(), {
                          {"service.hit_rate", "ratio"},
                          {"service.evictions_per_query", "ratio"},
                          {"service.overhead_us", "us"},
                          {"service.admission_ms", "ms"},
                          {"service.queue_wait_ms", "ms"},
                          {"net.rtt_p50_ms", "ms"},
                          {"net.rtt_p99_ms", "ms"},
                          {"net.server_ms", "ms"},
                          {"net.residual_p50_ms", "ms"},
                          {"net.residual_p99_ms", "ms"},
                          {"net.serialize_ms", "ms"},
                          {"net.fetch_frames_per_req", "count"},
                          {"net.bytes_out_per_req", "bytes"},
                          {"net.server_cpu_cores", "cores"},
                          {"obs.client_trace_cost_ms", "ms"},
                          {"obs.bench_trace_overhead_ms", "ms"},
                          {"driver.send_lag_ms", "ms"},
                          {"driver.conn_wait_ms", "ms"},
                      });
    for (const MixStatement& s : kMix) {
      add(std::string("driver.latency_p50_ms.") + s.key, "ms");
    }
    return v;
  }();
  return kSpecs;
}

void FinalizeMetrics(const std::vector<MetricSpec>& specs, bool fill_missing,
                     Report* r) {
  Report::MetricList out;
  std::string not_exercised;
  for (const MetricSpec& s : specs) {
    const double* v = r->Find(s.name);
    if (v == nullptr && !fill_missing) {
      throw std::runtime_error(std::string("metric not measured: ") + s.name);
    }
    if (v == nullptr) not_exercised += std::string(" ") + s.name;
    out.push_back({s.name, {v ? *v : 0.0, s.unit}});
  }
  r->ReplaceMetrics(std::move(out));
  if (!not_exercised.empty()) {
    r->text += "not exercised by this workload (reported as 0):" +
               not_exercised + "\n";
  }
}

}  // namespace ldbbench
