// adhoc-compile: a seeded stream of distinct OQL queries fed to an
// in-process QueryService::Execute. The queries come from the paper's
// nesting-class templates (P-N, P-J, P-A, P-JA, Query E, CB, Query D,
// Figure 8) plus the P-DEEP and P-SCAN shapes, with varied constants,
// comparison operators and aggregates, against a tiny Company / University
// database. Every query misses the 64-entry plan cache, so parse ->
// normalize (N1-N9) -> unnest (C1-C9) -> simplify -> physical -> slot
// compile dominates, execution is a small share and the network does no
// work. It is the other side of the plan cache from serve-mix: misses and
// evictions instead of hits.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ldbbench/src/stages.h"
#include "ldbbench/src/workloads.h"

namespace ldbbench {

using namespace ldb;

namespace {

constexpr int kCompanyEmployees = 50;
constexpr int kStudents = 24;
constexpr int kCourses = 8;
// The tiny databases are the same for every seed (the seed drives the query
// stream): at this size, data drawn per seed would change each template's
// cost far more than the noise the bounds allow.
constexpr uint64_t kDatabaseSeed = 42;
constexpr double kMaxQps = 20000;

struct Template {
  const char* key;  ///< pn, pj, pa, pja, qe, cb, qd, f8, pdeep, pscan
  bool university;  ///< runs against the University database
};
const Template kTemplates[] = {
    {"pn", false}, {"pj", true},  {"pa", false}, {"pja", false},
    {"qe", true},  {"cb", false}, {"qd", false}, {"f8", false},
    {"pdeep", false}, {"pscan", false},
};
constexpr size_t kTemplateCount = sizeof(kTemplates) / sizeof(kTemplates[0]);

struct Query {
  size_t t;  ///< index into kTemplates
  std::string oql;
};

// Draws one query text of template `t`.
std::string Instantiate(size_t t, std::mt19937_64& rng) {
  auto pick = [&](std::initializer_list<const char*> xs) {
    std::uniform_int_distribution<size_t> d(0, xs.size() - 1);
    return std::string(*(xs.begin() + d(rng)));
  };
  auto num = [&](int lo, int hi) {
    std::uniform_int_distribution<int> d(lo, hi);
    return std::to_string(d(rng));
  };
  // An always-true bound with a wide-range constant keeps every template's
  // space of distinct texts in the hundreds of thousands: a template with
  // few variants would run out of new texts early in a run and skew the
  // mix. Salaries are below 200000 and ids below 1000 in these databases.
  auto salary_cap = [&](const char* var) {
    return std::string(" and ") + var + ".salary < " + num(200000, 999999) + ".0";
  };
  auto sid_cap = [&] { return " and t.sid < " + num(1000, 999999); };
  const std::string key = kTemplates[t].key;
  if (key == "pn") {
    return "select distinct x." + pick({"name", "age", "salary"}) +
           " from x in (select e from e in Employees where e.salary " +
           pick({">", "<"}) + " " + num(30000, 120000) + ".0) where x.age " +
           pick({"<", ">", "<="}) + " " + num(18, 70);
  }
  if (key == "pj") {
    return "select distinct s.name from s in Students where exists t in "
           "Transcripts: t.sid = s.sid and t.cno " +
           pick({"=", "<", ">", "<="}) + " " + num(0, kCourses) + sid_cap();
  }
  if (key == "pa") {
    return "select distinct struct(D: d.name, total: " +
           pick({"sum", "max", "min"}) + "(select e." + pick({"salary", "age"}) +
           " from e in Employees where e.dno = d.dno and e.age " +
           pick({">", "<"}) + " " + num(18, 70) + salary_cap("e") +
           ")) from d in Departments";
  }
  if (key == "pja") {
    return "select distinct e.name from e in Employees where e.salary " +
           pick({"<", ">"}) + " " + pick({"max", "min", "sum"}) +
           "(select m.salary from m in Managers where e.age " + pick({">", "<"}) +
           " m.age + " + num(0, 30) + salary_cap("m") + ")";
  }
  if (key == "qe") {
    return "select distinct s.name from s in Students where for all c in "
           "select c from c in Courses where c.title = 'DB' and c.cno " +
           pick({"<", ">", ">="}) + " " + num(0, kCourses) +
           ": exists t in Transcripts: t.sid = s.sid and t.cno = c.cno" + sid_cap();
  }
  if (key == "cb") {
    return "select distinct d.name from d in Departments where count(select e "
           "from e in Employees where e.dno = d.dno and e.age " +
           pick({">", "<"}) + " " + num(18, 70) + salary_cap("e") + ") " +
           pick({"=", "<", ">"}) + " " + num(0, 30);
  }
  if (key == "qd") {
    return "select distinct struct(E: e.name, M: count(select distinct c from "
           "c in e.children where for all d in e.manager.children: c.age " +
           pick({">", "<"}) + " d.age + " + num(0, 10) +
           ")) from e in Employees where e.age " + pick({">", "<"}) + " " +
           num(18, 70) + salary_cap("e");
  }
  if (key == "f8") {
    return "select distinct e.dno, " + pick({"avg", "sum", "max", "min"}) +
           "(e." + pick({"salary", "age"}) +
           ") from Employees e where e.age " + pick({">", "<"}) + " " +
           num(18, 70) + salary_cap("e") + " group by e.dno";
  }
  if (key == "pdeep") {
    return "select distinct struct(E: e.name, M: m.name, D: d.name) from e in "
           "Employees, d in Departments, m in Managers where e.dno = d.dno and "
           "m.name = e.manager.name and e.age " + pick({"<", ">"}) + " m.age + " +
           num(0, 20) + " and e.salary < m.salary and d.budget > e.salary + " +
           num(0, 60000) + ".0";
  }
  return "sum(select e.salary + e.age * " + num(1, 500) +
         " from e in Employees where e.age > " + num(18, 40) + " and e.age < " +
         num(41, 70) + " and e.salary > " + num(30000, 90000) + ".0)";
}

// The seeded stream of distinct queries, templates drawn uniformly. A
// query text is never repeated (a repeat could be a cache hit). Generated
// on demand in chunks, so its length follows the program's speed; only the
// current chunk is kept, and indices must be read in increasing order (a
// fresh stream from the same seed replays the same queries). Text hashes
// go into an open-addressing table sized and touched up front, so the
// process's memory does not grow with the number of queries run.
class QueryStream {
 public:
  QueryStream(uint64_t seed, size_t expected) : rng_(seed) {
    size_t slots = 1024;
    while (slots < 2 * expected) slots *= 2;
    seen_.assign(slots, 0);
  }

  const Query& At(size_t i) {
    if (i < base_) throw std::logic_error("QueryStream read out of order");
    while (i >= base_ + chunk_.size()) NextChunk();
    return chunk_[i - base_];
  }
  size_t generated() const { return base_ + chunk_.size(); }
  /// Time spent generating, kept out of the timed windows.
  double generate_s() const { return generate_s_; }

 private:
  void NextChunk() {
    const Clock::time_point t0 = Clock::now();
    base_ += chunk_.size();
    chunk_.clear();
    std::uniform_int_distribution<size_t> which(0, kTemplateCount - 1);
    while (chunk_.size() < 1024) {
      Query q;
      q.t = which(rng_);
      q.oql = Instantiate(q.t, rng_);
      if (Insert(std::hash<std::string>()(q.oql) | 1)) chunk_.push_back(std::move(q));
    }
    generate_s_ += MsBetween(t0, Clock::now()) / 1e3;
  }

  // Adds a (nonzero) hash; false when already present.
  bool Insert(uint64_t h) {
    if (2 * (count_ + 1) > seen_.size()) {
      std::vector<uint64_t> old;
      old.swap(seen_);
      seen_.assign(old.size() * 2, 0);
      count_ = 0;
      for (uint64_t x : old) {
        if (x != 0) Insert(x);
      }
    }
    const size_t mask = seen_.size() - 1;
    for (size_t k = h & mask;; k = (k + 1) & mask) {
      if (seen_[k] == h) return false;
      if (seen_[k] == 0) {
        seen_[k] = h;
        ++count_;
        return true;
      }
    }
  }

  std::mt19937_64 rng_;
  std::vector<uint64_t> seen_;
  size_t count_ = 0;
  size_t base_ = 0;  ///< stream index of chunk_[0]
  std::vector<Query> chunk_;
  double generate_s_ = 0;
};

// One executed query. Results are kept as digests, not values, so the
// timed loop does not grow the heap with every query.
struct Sample {
  size_t query;  ///< index into the stream
  size_t t;      ///< its template
  double ms;     ///< Execute wall time
  double exec_ms, queue_ms, queue_wait_ms;  ///< from QueryStats
  bool profiled;
  double stage_sum_us;  ///< traced window: the mirror pipeline's stage sum
  Digest digest;
  size_t slice;  ///< index of the timed slice it ran in
};

struct Env {
  std::unique_ptr<Database> company, university;
  std::unique_ptr<QueryService> company_svc, university_svc;
  std::shared_ptr<Session> company_session, university_session;

  const Database& db(size_t t) const {
    return kTemplates[t].university ? *university : *company;
  }
  QueryService& svc(size_t t) const {
    return kTemplates[t].university ? *university_svc : *company_svc;
  }
  Session& session(size_t t) const {
    return kTemplates[t].university ? *university_session : *company_session;
  }
  // Sessions, then services, then the databases they point into.
  void Reset() {
    company_session.reset();
    university_session.reset();
    company_svc.reset();
    university_svc.reset();
    company.reset();
    university.reset();
  }
  PlanCacheStats cache() const {
    PlanCacheStats a = company_svc->cache_stats(), b = university_svc->cache_stats();
    a.hits += b.hits;
    a.misses += b.misses;
    a.evictions += b.evictions;
    return a;
  }
};

struct Window {
  std::vector<Sample> samples;
  std::vector<double> slice_wall_s;  ///< per timed slice, generation excluded
  std::vector<double> slice_scale;   ///< per timed slice, HostSpeed::Scale
  double wall_s = 0;
};

// Reference-kernel runs in a timed slice: one per this many queries (about
// every 15 ms), so the host speed is read where the queries ran.
constexpr size_t kQueriesPerReference = 64;

// One timed slice: executes stream queries from *next on until `seconds`
// have passed, appending to w->samples. The reference kernel runs between
// queries and its time, like the stream's generation, is left out. With
// `tracer`, each query is a traced request that also runs the mirror
// pipeline (RunStages) after the timed Execute, and every other query
// attaches a QueryProfiler.
void RunSlice(const Env& env, QueryStream& stream, size_t* next, double seconds,
              Tracer* tracer, std::vector<StageTimes>* stages, Report* r, Window* w) {
  const size_t start_at = *next;
  const double generated0 = stream.generate_s();
  const Clock::time_point start = Clock::now();
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  HostSpeed host;
  auto excluded = [&] {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
        stream.generate_s() - generated0 + host.spent_ms() / 1e3));
  };
  size_t i = start_at;
  for (; i == start_at || Clock::now() < start + window + excluded(); ++i) {
    if (i % kQueriesPerReference == 0) host.Sample();
    const Query& q = stream.At(i);
    Sample s{i, q.t, 0, 0, 0, 0, tracer != nullptr && i % 2 == 1, 0, {},
             w->slice_wall_s.size()};
    QueryStats stats;
    QueryProfiler prof;
    r->Attempt();
    if (tracer) tracer->BeginRequest("request", "bench", Tracer::Now());
    int span = tracer ? tracer->Open("QueryService::Execute", "service", 0) : -1;
    const Clock::time_point t0 = Clock::now();
    Value v;
    try {
      v = env.svc(q.t).Execute(env.session(q.t), q.oql, &stats,
                               s.profiled ? &prof : nullptr);
    } catch (const Error&) {
      r->Fail();
      if (tracer) tracer->EndRequest();
      continue;
    }
    s.ms = MsBetween(t0, Clock::now());
    s.exec_ms = stats.exec_ms;
    s.queue_ms = stats.queue_ms;
    s.queue_wait_ms = stats.queue_wait_ms;
    s.digest = DigestOf(v);
    if (tracer) {
      tracer->Close(span);
      int mirror = tracer->Open("mirror-pipeline", "bench", 0);
      StageTimes st;
      Value mv = RunStages(env.db(q.t), q.oql, nullptr, /*execute=*/true, &st,
                           tracer, mirror);
      tracer->Close(mirror);
      tracer->Close(0);
      tracer->EndRequest();
      s.stage_sum_us = st.Sum();
      stages->push_back(st);
      r->Check(mv == v, "adhoc-compile: staged pipeline differs from Execute for " + q.oql);
    }
    w->samples.push_back(s);
  }
  host.Sample();
  const double wall = MsBetween(start, Clock::now()) / 1e3 -
                      (stream.generate_s() - generated0) - host.spent_ms() / 1e3;
  w->slice_wall_s.push_back(wall);
  w->slice_scale.push_back(host.Scale());
  w->wall_s += wall;
  *next = i;
}

}  // namespace

void RunAdhocCompile(const Args& a, Report* r) {
  // Bookkeeping is sized for kMaxQps and touched during set-up, so the
  // process's peak memory reflects the engine, not how many queries ran.
  const size_t expected = static_cast<size_t>(a.seconds * kMaxQps) + 4096;
  r->sizes = {{"company_employees", std::to_string(kCompanyEmployees)},
              {"students", std::to_string(kStudents)},
              {"courses", std::to_string(kCourses)},
              {"templates", std::to_string(kTemplateCount)},
              {"plan_cache_entries", "64"}};

  // Set-up: databases, services, and a warm-up that fills both plan caches
  // with queries outside the stream so every timed query evicts one.
  // Repeated so setup_s is a median; the traced run sets up once.
  Env env;
  std::unique_ptr<QueryStream> stream;
  std::vector<double> setup_s, setup_raw_s;
  for (int rep = 0; rep < (a.trace ? 1 : 5); ++rep) {
    env.Reset();
    setup_raw_s.push_back(0);
    setup_s.push_back(ScaledSeconds(
        [&] {
          env.company =
              std::make_unique<Database>(MakeCompany(kCompanyEmployees, kDatabaseSeed));
          workload::UniversityParams up;
          up.n_students = kStudents;
          up.n_courses = kCourses;
          up.seed = kDatabaseSeed;
          env.university = std::make_unique<Database>(workload::MakeUniversityDatabase(up));
          env.company_svc = std::make_unique<QueryService>(*env.company);
          env.university_svc = std::make_unique<QueryService>(*env.university);
          env.company_session = env.company_svc->OpenSession();
          env.university_session = env.university_svc->OpenSession();
          QueryStream warm(a.seed ^ 0x9e3779b97f4a7c15ULL, 2048);
          for (size_t i = 0; i < 2048; ++i) {
            const Query& q = warm.At(i);
            env.svc(q.t).Execute(env.session(q.t), q.oql);
          }
        },
        &setup_raw_s.back()));
  }
  r->Set("setup_s", Median(setup_s), "s");
  // The stream's hash table (8 MiB for a 25 s run) is built once, outside
  // the repeated set-up: freeing one per repetition left the allocator
  // holding 8 MiB more in some runs than in others, which showed in
  // peak_rss_mb.
  stream = std::make_unique<QueryStream>(a.seed, expected);

  const PlanCacheStats cache0 = env.cache();
  Tracer tracer;
  std::vector<StageTimes> stages;
  Window untraced, traced;
  for (Window* w : {&untraced, &traced}) {
    if (w == &traced && !a.trace) continue;
    w->samples.resize(expected);
    w->samples.clear();  // keeps the touched capacity
  }
  // The window is cut into slices of about a second, run back to back; the
  // end-to-end figures are medians over the slices, so one noisy second
  // does not move them. The traced run times its first half of the slices
  // untraced and the second half traced.
  const size_t n_slices = std::max<size_t>(1, static_cast<size_t>(std::lround(a.seconds)));
  size_t next = 0;
  ResetSelfPeakRss();
  for (size_t k = 0; k < n_slices; ++k) {
    const bool traced_slice = a.trace && 2 * k >= n_slices;
    RunSlice(env, *stream, &next, a.seconds / n_slices, traced_slice ? &tracer : nullptr,
             &stages, r, traced_slice ? &traced : &untraced);
  }
  // Read before the checks: the checking threads' heaps are not the
  // engine's memory.
  r->Set("peak_rss_mb", SelfPeakRssMb(), "MiB");

  // Every executed query against the nested-loop baseline, after the timed
  // window, on every usable CPU: the baseline costs about 1.3 times the
  // timed work, and serially it would take most of a run's time.
  QueryStream replay(a.seed, expected);
  uint64_t mismatches = 0;
  std::string first_bad;
  for (const Window* w : {&untraced, &traced}) {
    std::vector<Query> todo;
    todo.reserve(w->samples.size());
    for (const Sample& s : w->samples) todo.push_back(replay.At(s.query));
    std::vector<char> bad(todo.size(), 0);
    std::vector<std::thread> pool;
    const size_t n = static_cast<size_t>(UsableCpus());
    for (size_t id = 0; id < n; ++id) {
      pool.emplace_back([&, id] {
        for (size_t k = id; k < todo.size(); k += n) {
          const Query& q = todo[k];
          try {
            bad[k] = !(DigestOf(RunOQLBaseline(env.db(q.t), q.oql)) == w->samples[k].digest);
          } catch (const std::exception&) {
            bad[k] = 1;  // the baseline rejects a query Execute answered
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
    for (size_t k = 0; k < todo.size(); ++k) {
      if (!bad[k]) continue;
      if (mismatches++ == 0) first_bad = todo[k].oql;
      r->Fail();
    }
  }
  r->Check(mismatches == 0, "adhoc-compile: " + std::to_string(mismatches) +
                                " queries differ from the baseline, first: " + first_bad);
  const PlanCacheStats cache1 = env.cache();
  r->sizes.push_back({"stream_queries_generated", std::to_string(stream->generated())});

  // End-to-end metrics (untraced slices), each time scaled by its slice's
  // host speed. Latency percentiles and throughput are taken per slice and
  // the median over the slices is reported, so one noisy second does not
  // move the figure.
  std::vector<double> all;
  std::vector<std::vector<double>> per_template(kTemplateCount);
  std::vector<std::vector<double>> per_slice(untraced.slice_wall_s.size());
  for (const Sample& s : untraced.samples) {
    const double ms = s.ms * untraced.slice_scale[s.slice];
    all.push_back(s.ms);
    per_template[s.t].push_back(ms);
    per_slice[s.slice].push_back(ms);
  }
  std::vector<double> p50s, p95s, qps;
  std::string slices_text =
      "\nper timed slice (raw queries/s, host scale, scaled p95 ms):";
  for (size_t k = 0; k < per_slice.size(); ++k) {
    const double raw_qps = static_cast<double>(per_slice[k].size()) / untraced.slice_wall_s[k];
    p50s.push_back(Percentile(per_slice[k], 0.50));
    p95s.push_back(Percentile(per_slice[k], 0.95));
    qps.push_back(raw_qps / untraced.slice_scale[k]);
    char cell[64];
    std::snprintf(cell, sizeof(cell), " %.0f/%.3f/%.3f", raw_qps, untraced.slice_scale[k],
                  p95s.back());
    slices_text += cell;
  }
  slices_text += "\nset-up (raw s):";
  for (double raw : setup_raw_s) slices_text += " " + std::to_string(raw);
  r->Set("latency_p50_ms", Median(p50s), "ms");
  r->Set("latency_p95_ms", Median(p95s), "ms");
  r->Set("throughput_qps", Median(qps), "1/s");
  std::string text = "adhoc-compile: " + std::to_string(all.size()) +
                     " distinct queries in " + std::to_string(untraced.wall_s) +
                     " s; median scaled latency per template (ms):";
  for (size_t t = 0; t < kTemplateCount; ++t) {
    const double med = Median(per_template[t]);
    text += std::string(" ") + kTemplates[t].key + "=" + std::to_string(med);
    for (const NamedQuery& q : kAnalytic) {
      if (std::string(q.key) == kTemplates[t].key) {
        r->Set(std::string(q.key) + "_ms", med, "ms");
      }
    }
  }
  r->text += text + slices_text + "\n";

  if (!a.trace) return;

  // Per-layer metrics (traced run).
  ReportStageMedians(stages, r);
  std::vector<double> overhead_us, admission, queue_wait;
  std::vector<std::vector<double>> with(kTemplateCount), without(kTemplateCount);
  for (const Sample& s : traced.samples) {
    overhead_us.push_back(s.ms * 1e3 - s.stage_sum_us);
    admission.push_back(s.queue_ms);
    queue_wait.push_back(s.queue_wait_ms);
    (s.profiled ? with : without)[s.t].push_back(s.exec_ms);
  }
  double trace_cost = 0;
  for (size_t t = 0; t < kTemplateCount; ++t) {
    trace_cost += (Median(with[t]) - Median(without[t])) / kTemplateCount;
  }
  r->Set("service.overhead_us", Median(overhead_us), "us");
  r->Set("service.admission_ms", Percentile(admission, 0.99), "ms");
  r->Set("service.queue_wait_ms", Percentile(queue_wait, 0.99), "ms");
  r->Set("obs.client_trace_cost_ms", trace_cost, "ms");
  {
    std::vector<double> unprofiled;
    for (const Sample& s : traced.samples) {
      if (!s.profiled) unprofiled.push_back(s.ms);
    }
    r->Set("obs.bench_trace_overhead_ms", Median(unprofiled) - Median(all), "ms");
  }
  ReportPlanCache(static_cast<double>(cache1.hits - cache0.hits),
                  static_cast<double>(cache1.misses - cache0.misses),
                  static_cast<double>(cache1.evictions - cache0.evictions), r);

  // The paper's canonical analytic queries, executed directly on the tiny
  // Company database.
  for (const NamedQuery& q : kAnalytic) {
    RuntimeResult rr = MeasureRuntime(*env.company, q, UsableCpus(), 20, r, &tracer);
    r->Check(rr.serial == rr.parallel,
             std::string("adhoc-compile: parallel result differs for ") + q.key);
  }

  WriteTraceArtifacts(a, tracer, "adhoc-compile", "", r);
}

}  // namespace ldbbench
