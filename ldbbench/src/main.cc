// ldbbench — runs one named benchmark workload, checks its outputs, and
// prints every metric by name and unit (README.md in this directory).
//
//   ldbbench --workload serve-mix|adhoc-compile|analytic-large --seed N
//            --seconds S --trace 0|1 --out DIR [--server PATH]
//            [--commit ID] [--source-digest HEX]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics and writes a Chrome trace plus a self-time table to DIR. The last
// line of standard output is the result object. Exit status: 0 when every
// output check passed, 1 on a wrong result, 2 on bad arguments, 3 when the
// binary is not an optimised Release build, 4 when the run itself failed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>
#include <thread>

#include "ldbbench/src/common.h"
#include "ldbbench/src/workloads.h"
#include "src/obs/metrics.h"

namespace {

using namespace ldbbench;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve-mix|adhoc-compile|analytic-large "
               "--seed N --seconds S --trace 0|1 --out DIR [--server PATH] "
               "[--commit ID] [--source-digest HEX]\n",
               argv0);
  return 2;
}

std::string ProvenanceJson(const Args& a, const Report& r) {
  std::ostringstream os;
  os << "{\"commit\": \"" << JsonEscape(a.commit) << "\""
     << ", \"source_sha256\": \"" << JsonEscape(a.source_digest) << "\""
     << ", \"cpu_model\": \"" << JsonEscape(CpuModel()) << "\""
     << ", \"usable_cpus\": " << UsableCpus()
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": \"" << LDB_BUILD_TYPE << "\""
     << ", \"ldb_metrics\": " << (LDB_METRICS_ENABLED ? "\"on\"" : "\"off\"")
     << ", \"workload\": \"" << JsonEscape(a.workload) << "\""
     << ", \"seed\": " << a.seed << ", \"seconds\": " << a.seconds
     << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"sizes\": {";
  bool first = true;
  for (const auto& [k, v] : r.sizes) {
    os << (first ? "" : ", ") << "\"" << JsonEscape(k) << "\": \""
       << JsonEscape(v) << "\"";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    std::string val = argv[++i];
    if (arg == "--workload") {
      a.workload = val;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::atof(val.c_str());
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return Usage(argv[0]);
      a.trace = val == "1";
      have_trace = true;
    } else if (arg == "--out") {
      a.out_dir = val;
    } else if (arg == "--server") {
      a.server_bin = val;
    } else if (arg == "--commit") {
      a.commit = val;
    } else if (arg == "--source-digest") {
      a.source_digest = val;
    } else {
      return Usage(argv[0]);
    }
  }
  if (a.workload.empty() || !have_trace || a.seconds <= 0 || a.out_dir.empty())
    return Usage(argv[0]);

#ifndef NDEBUG
  // Timings of an unoptimised build (or one with the Debug-default plan
  // verifier on) say nothing about the engine; refuse rather than report.
  std::fprintf(stderr, "ldbbench: refusing to measure a non-Release build (%s)\n",
               LDB_BUILD_TYPE);
  return 3;
#endif

  Report report;
  try {
    if (a.workload == "serve-mix") {
      RunServeMix(a, &report);
    } else if (a.workload == "adhoc-compile") {
      RunAdhocCompile(a, &report);
    } else if (a.workload == "analytic-large") {
      RunAnalyticLarge(a, &report);
    } else {
      return Usage(argv[0]);
    }
    // Failed, rejected, cancelled, transport-failed and wrong-result
    // operations all count in failed().
    report.Set("success_rate",
               static_cast<double>(report.attempted() - report.failed()) /
                   static_cast<double>(std::max<uint64_t>(1, report.attempted())),
               "ratio");
    FinalizeMetrics(a.trace ? PerLayerMetrics() : EndToEndMetrics(),
                    /*fill_missing=*/a.trace, &report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ldbbench: %s failed: %s\n", a.workload.c_str(), e.what());
    return 4;
  }

  const std::string provenance = ProvenanceJson(a, report);
  const std::string result = report.ResultJson();
  std::ostringstream doc;
  doc << "{\"provenance\": " << provenance << ",\n \"result\": " << result
      << ",\n \"checks\": " << report.checks() << ", \"check_failures\": [";
  for (size_t i = 0; i < report.check_failures().size(); ++i) {
    doc << (i ? ", " : "") << "\"" << JsonEscape(report.check_failures()[i]) << "\"";
  }
  doc << "]}\n";
  if (!WriteFile(ArtifactPath(a, ".report.json"), doc.str())) {
    std::fprintf(stderr, "ldbbench: cannot write %s\n",
                 ArtifactPath(a, ".report.json").c_str());
    return 4;
  }

  std::printf("provenance: %s\n", provenance.c_str());
  std::fputs(report.text.c_str(), stdout);
  std::printf("checks: %llu run, %zu failed\n",
              static_cast<unsigned long long>(report.checks()),
              report.check_failures().size());
  for (const std::string& f : report.check_failures()) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
