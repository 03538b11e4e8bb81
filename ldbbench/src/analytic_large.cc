// analytic-large: the paper's analytic queries (P-A, P-JA, CB, P-DEEP,
// P-SCAN) on Company at 32000 employees, through QueryService::Execute on
// one session with n_threads = usable CPUs and warm plans. Execution — hash
// build/probe, nest, the nested-loop outer join and morsel parallelism —
// does almost all the work; it uses the executor the opposite way to
// serve-mix (intra-query parallelism on big inputs instead of many small
// serial queries), so a change that trades one for the other shows.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ldbbench/src/stages.h"
#include "ldbbench/src/workloads.h"

namespace ldbbench {

using namespace ldb;

namespace {

constexpr int kScale = 32000;
// Scale at which results are also compared with the nested-loop baseline
// interpreter (quadratic, so it cannot run at kScale).
constexpr int kVerifyScale = 1000;
constexpr size_t kQueries = sizeof(kAnalytic) / sizeof(kAnalytic[0]);

struct Sample {
  size_t q;
  double ms;  ///< raw wall time
  QueryStats stats;
  bool profiled;
  size_t round;
};

struct Window {
  std::vector<Sample> samples;
  std::vector<double> round_scale;  ///< per round, HostSpeed::Scale
  double wall_s = 0;         ///< reference-kernel runs left out
  double scaled_wall_s = 0;  ///< each round's wall time times its scale
  double cpu_s = 0;
  uint64_t mismatches = 0;
};

// Executions of each query per round (pa, pja, cb, pdeep, pscan). P-JA runs
// about fifteen times longer than the others, so they repeat within a round
// to get enough samples for stable medians in the run time. The pooled
// percentiles must fall in the middle of one query's samples, not on the
// edge between two, where they would jump between queries: CB, the
// middle-cost query, is 9 of 20 executions, so the median is CB's; P-JA is
// the slowest 2 of 20, so the p95 is P-JA's median.
constexpr int kWeights[kQueries] = {3, 2, 9, 3, 3};
constexpr int kMaxWeight = 9;

// Runs whole rounds until `seconds` have passed (at least one round). The
// reference kernel runs on every CPU before every execution and after the
// last one of a round; its time is left out, and each round's timings are
// scaled by the host speed it read. With `tracer`, every execution is a
// traced request and every other round attaches a QueryProfiler (the
// in-process equivalent of a client-traced request).
Window RunRounds(QueryService& svc, Session& session, double seconds,
                 const std::vector<Digest>& expect, Tracer* tracer,
                 Report* r) {
  Window w;
  const double cpu0 = SelfCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<size_t> order;
  for (int k = 0; k < kMaxWeight; ++k) {
    for (size_t q = 0; q < kQueries; ++q) {
      if (k < kWeights[q]) order.push_back(q);
    }
  }
  double reference_s = 0;
  auto excluded = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(reference_s));
  };
  for (size_t round = 0; round == 0 || Clock::now() < deadline + excluded(); ++round) {
    HostSpeed host;
    const Clock::time_point round_start = Clock::now();
    for (size_t q : order) {
      host.SampleEveryCpu(kBurstRuns / 4);
      Sample s{q, 0, {}, tracer != nullptr && round % 2 == 1, round};
      QueryProfiler prof;
      r->Attempt();
      if (tracer) tracer->BeginRequest("request", "bench", Tracer::Now());
      int span = tracer ? tracer->Open("QueryService::Execute", "service", 0) : -1;
      const Clock::time_point t0 = Clock::now();
      try {
        Value v = svc.Execute(session, kAnalytic[q].oql, &s.stats,
                              s.profiled ? &prof : nullptr);
        s.ms = MsBetween(t0, Clock::now());
        if (tracer) {
          tracer->Close(span);
          tracer->Close(0);
          tracer->EndRequest();
        }
        if (!(DigestOf(v) == expect[q])) {
          ++w.mismatches;
          r->Fail();
        }
        w.samples.push_back(s);
      } catch (const Error&) {
        r->Fail();
        if (tracer) tracer->EndRequest();
      }
    }
    host.SampleEveryCpu(kBurstRuns);
    const double round_s = MsBetween(round_start, Clock::now()) / 1e3 - host.spent_ms() / 1e3;
    reference_s += host.spent_ms() / 1e3;
    w.round_scale.push_back(host.Scale());
    w.scaled_wall_s += round_s * host.Scale();
  }
  w.wall_s = MsBetween(start, Clock::now()) / 1e3 - reference_s;
  // The bursts kept every CPU busy for reference_s.
  w.cpu_s = SelfCpuSeconds() - cpu0 - reference_s * UsableCpus();
  return w;
}

// Execution times of query q (every query when q < 0), each scaled by its
// round's host speed unless `raw`.
std::vector<double> Latencies(const Window& w, int q = -1, bool raw = false) {
  std::vector<double> v;
  for (const Sample& s : w.samples) {
    if (q < 0 || s.q == static_cast<size_t>(q)) {
      v.push_back(raw ? s.ms : s.ms * w.round_scale[s.round]);
    }
  }
  return v;
}

}  // namespace

void RunAnalyticLarge(const Args& a, Report* r) {
  const int threads = UsableCpus();
  r->sizes = {{"employees", std::to_string(kScale)},
              {"departments", std::to_string(kScale / 40)},
              {"managers", std::to_string(kScale / 100)},
              {"threads", std::to_string(threads)},
              {"verify_employees", std::to_string(kVerifyScale)}};

  // Set-up: generate the database, open the service and session, and run
  // every query once (fills the plan cache, touches the extents). Repeated
  // so setup_s is a median; the traced run sets up once.
  std::unique_ptr<Database> db;
  std::unique_ptr<QueryService> svc;
  std::shared_ptr<Session> session;
  std::vector<Digest> expect(kQueries);
  std::vector<Value> warm(kQueries);
  std::vector<double> setup_s, setup_raw_s;
  for (int rep = 0; rep < (a.trace ? 1 : 3); ++rep) {
    session.reset();
    svc.reset();
    db.reset();
    setup_raw_s.push_back(0);
    setup_s.push_back(ScaledSeconds(
        [&] {
          db = std::make_unique<Database>(MakeCompany(kScale, a.seed));
          ServiceOptions so;
          so.max_concurrent = threads;
          svc = std::make_unique<QueryService>(*db, so);
          session = svc->OpenSession();
          session->options().n_threads = threads;
          for (size_t q = 0; q < kQueries; ++q) {
            warm[q] = svc->Execute(*session, kAnalytic[q].oql);
          }
        },
        &setup_raw_s.back()));
  }
  for (size_t q = 0; q < kQueries; ++q) expect[q] = DigestOf(warm[q]);
  r->Set("setup_s", Median(setup_s), "s");

  const PlanCacheStats cache0 = svc->cache_stats();
  Tracer tracer;
  ResetSelfPeakRss();
  Window untraced = RunRounds(*svc, *session, a.trace ? a.seconds / 2 : a.seconds,
                              expect, nullptr, r);
  Window traced;
  if (a.trace) traced = RunRounds(*svc, *session, a.seconds / 2, expect, &tracer, r);
  const PlanCacheStats cache1 = svc->cache_stats();
  // Read before the checks: their serial executions are not the workload.
  r->Set("peak_rss_mb", SelfPeakRssMb(), "MiB");
  r->Check(untraced.mismatches + traced.mismatches == 0,
           "analytic-large: a timed execution differs from the warm-up result");

  // End-to-end metrics (untraced window), scaled by each round's host speed.
  std::vector<double> all = Latencies(untraced);
  r->Set("latency_p50_ms", Percentile(all, 0.50), "ms");
  r->Set("latency_p95_ms", Percentile(all, 0.95), "ms");
  r->Set("throughput_qps", static_cast<double>(all.size()) / untraced.scaled_wall_s, "1/s");
  char line[160];
  std::snprintf(line, sizeof(line),
                "analytic-large: %zu executions in %.3f s (%.3f s scaled); host scale "
                "median %.3f; set-up raw s %.3f\n",
                all.size(), untraced.wall_s, untraced.scaled_wall_s, Median(untraced.round_scale),
                Median(setup_raw_s));
  std::string text = line;
  for (size_t q = 0; q < kQueries; ++q) {
    const std::vector<double> v = Latencies(untraced, static_cast<int>(q));
    const double med = Median(v);
    r->Set(std::string(kAnalytic[q].key) + "_ms", med, "ms");
    std::snprintf(line, sizeof(line),
                  "  %-6s n %3zu  scaled min %9.3f  median %9.3f  max %9.3f  raw median "
                  "%9.3f ms\n",
                  kAnalytic[q].key, v.size(), Percentile(v, 0), med, Percentile(v, 1),
                  Median(Latencies(untraced, static_cast<int>(q), /*raw=*/true)));
    text += line;
  }
  r->text += text;

  // Output checks, outside the timed window. Results at nproc threads must
  // equal serial results at full scale (the traced run reuses the serial
  // executions it times), and the service's results must equal the
  // nested-loop baseline at the verification scale.
  std::vector<RuntimeResult> runtime(kQueries);
  for (size_t q = 0; q < kQueries; ++q) {
    Value serial;
    if (a.trace) {
      // Big queries get one repetition: P-JA alone runs seconds serially.
      const int reps = Median(Latencies(untraced, static_cast<int>(q), true)) < 200 ? 5 : 1;
      runtime[q] = MeasureRuntime(*db, kAnalytic[q], threads, reps, r, &tracer);
      serial = runtime[q].serial;
      r->Check(runtime[q].parallel == warm[q],
               std::string("analytic-large: runtime parallel result differs for ") +
                   kAnalytic[q].key);
    } else {
      auto serial_session = svc->OpenSession();
      serial = svc->Execute(*serial_session, kAnalytic[q].oql);
    }
    r->Check(serial == warm[q], std::string("analytic-large: ") + kAnalytic[q].key +
                                    " at " + std::to_string(threads) +
                                    " threads differs from the serial result");
  }
  {
    Database small = MakeCompany(kVerifyScale, a.seed);
    QueryService small_svc(small);
    auto s = small_svc.OpenSession();
    s->options().n_threads = threads;
    s->options().morsel_size = 64;  // small extents still split into morsels
    for (const NamedQuery& q : kAnalytic) {
      r->Check(small_svc.Execute(*s, q.oql) == RunOQLBaseline(small, q.oql),
               std::string("analytic-large: ") + q.key +
                   " differs from the nested-loop baseline at " +
                   std::to_string(kVerifyScale) + " employees");
    }
  }

  if (!a.trace) return;

  // Per-layer metrics (traced run).
  std::vector<StageTimes> stages;
  for (int rep = 0; rep < 5; ++rep) {
    for (const NamedQuery& q : kAnalytic) {
      tracer.BeginRequest("request", "bench", Tracer::Now());
      StageTimes t;
      RunStages(*db, q.oql, nullptr, /*execute=*/false, &t, &tracer, 0);
      tracer.Close(0);
      tracer.EndRequest();
      stages.push_back(t);
    }
  }
  ReportStageMedians(stages, r);

  std::vector<double> overhead_us;
  double trace_cost = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    overhead_us.push_back(
        (Median(Latencies(untraced, static_cast<int>(q), true)) - runtime[q].parallel_ms) *
        1e3);
    std::vector<double> with, without;
    for (const Sample& s : traced.samples) {
      if (s.q == q) (s.profiled ? with : without).push_back(s.stats.exec_ms);
    }
    trace_cost += (Median(with) - Median(without)) / static_cast<double>(kQueries);
  }
  r->Set("service.overhead_us", Median(overhead_us), "us");
  r->Set("obs.client_trace_cost_ms", trace_cost, "ms");
  {
    std::vector<double> unprofiled;
    for (const Sample& s : traced.samples) {
      if (!s.profiled) unprofiled.push_back(s.ms);
    }
    r->Set("obs.bench_trace_overhead_ms",
           Median(unprofiled) - Median(Latencies(untraced, -1, /*raw=*/true)), "ms");
  }
  ReportPlanCache(static_cast<double>(cache1.hits - cache0.hits),
                  static_cast<double>(cache1.misses - cache0.misses),
                  static_cast<double>(cache1.evictions - cache0.evictions), r);
  std::vector<double> admission, queue_wait;
  for (const Window* w : {&untraced, &traced}) {
    for (const Sample& s : w->samples) {
      admission.push_back(s.stats.queue_ms);
      queue_wait.push_back(s.stats.queue_wait_ms);
    }
  }
  r->Set("service.admission_ms", Percentile(admission, 0.99), "ms");
  r->Set("service.queue_wait_ms", Percentile(queue_wait, 0.99), "ms");
  // The SERVICE mix's first three statements are P-A, P-JA and CB.
  for (size_t m = 0; m < 3; ++m) {
    std::vector<double> exec;
    for (const Sample& s : untraced.samples) {
      if (s.q == m) exec.push_back(s.stats.exec_ms);
    }
    r->Set(std::string("runtime.exec_ms.") + kMix[m].key, Median(exec), "ms");
  }
  r->Set("net.server_cpu_cores", untraced.cpu_s / untraced.wall_s, "cores");

  WriteTraceArtifacts(a, tracer, "analytic-large", "", r);
}

}  // namespace ldbbench
