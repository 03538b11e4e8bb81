// serve-mix: the real ldb_server child process serving Company at 2000
// employees (a dump the benchmark generates from its seed), driven from
// this process over one connection per usable CPU with the SERVICE mix
// (type-A, type-JA, count-bug, and the $1 lookup), each statement PREPAREd.
//
// Two phases. An open loop at a fixed offered rate, about half of the
// measured closed-loop capacity, gives the latency metrics: requests carry
// a scheduled arrival time, the statement sequence is seeded and
// independent of the connection, and each request goes to the first idle
// connection, its latency timed from the scheduled arrival. A closed loop
// with every connection busy gives throughput_qps. Every plan is a cache
// hit (4 statements in a 64-entry cache), so the wire, admission and
// serialization do most of the work while oql and core do almost none.

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ldbbench/src/stages.h"
#include "ldbbench/src/workloads.h"
#include "src/net/client.h"

namespace ldbbench {

using namespace ldb;

namespace {

constexpr int kScale = 2000;
// Offered open-loop rate: a fifth to two fifths of the closed-loop capacity
// measured on a 4-vCPU VM (README.md), low enough that queueing does not
// amplify host noise, and high enough that the open loop of a 25 s run
// holds about 2500 requests, 25 beyond its p99. Fixed, so a faster program
// is judged at the same load instead of being offered more.
constexpr double kOfferedQps = 135;
constexpr double kOpenShare = 0.75;  ///< of --seconds; the closed loop gets the rest
constexpr uint32_t kFetchBatch = 1024;
constexpr size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);
constexpr size_t kQueries = sizeof(kAnalytic) / sizeof(kAnalytic[0]);
constexpr int kProbeReps = 4;  ///< per segment

// -- the server child process -------------------------------------------------

struct ServerProc {
  pid_t pid = -1;
  int out_fd = -1;
  uint16_t port = 0;
};

ServerProc StartServer(const std::string& bin, const std::string& dump,
                       int workers) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const std::string w = std::to_string(workers);
  std::vector<std::string> args = {bin, "--db", dump, "--port", "0",
                                   "--workers", w, "--max-concurrent", w,
                                   "--max-queue", "64"};
  pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    for (std::string& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    execv(bin.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  ServerProc p{pid, fds[0], 0};
  // Wait for "listening on <host>:<port>".
  std::string buf;
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
  while (p.port == 0) {
    struct pollfd pfd {p.out_fd, POLLIN, 0};
    if (Clock::now() > give_up || poll(&pfd, 1, 1000) < 0) break;
    char chunk[512];
    ssize_t n = pfd.revents ? read(p.out_fd, chunk, sizeof(chunk)) : 0;
    if (pfd.revents && n <= 0) break;
    buf.append(chunk, static_cast<size_t>(std::max<ssize_t>(n, 0)));
    size_t at = buf.find("listening on ");
    size_t eol = at == std::string::npos ? at : buf.find('\n', at);
    if (eol != std::string::npos) {
      size_t colon = buf.rfind(':', eol);
      p.port = static_cast<uint16_t>(std::atoi(buf.c_str() + colon + 1));
    }
  }
  if (p.port == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    close(p.out_fd);
    throw std::runtime_error("ldb_server did not start: " + buf);
  }
  return p;
}

// SIGTERM (graceful drain), then wait; SIGKILL if it does not exit in 20 s.
void StopServer(ServerProc* p) {
  if (p->pid < 0) return;
  kill(p->pid, SIGTERM);
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
  char chunk[512];
  bool eof = false;
  for (;;) {
    // Drain its output so a full pipe can never block the drain.
    struct pollfd pfd {eof ? -1 : p->out_fd, POLLIN, 0};
    if (poll(&pfd, 1, 100) > 0 && read(p->out_fd, chunk, sizeof(chunk)) <= 0) {
      eof = true;
    }
    if (waitpid(p->pid, nullptr, WNOHANG) == p->pid) break;
    if (Clock::now() > give_up) {
      kill(p->pid, SIGKILL);
      waitpid(p->pid, nullptr, 0);
      break;
    }
  }
  close(p->out_fd);
  p->pid = -1;
}

// -- requests -------------------------------------------------------------------

struct Req {
  uint8_t stmt;
  int32_t binding;  ///< $1 for the lookup statement
};

enum Outcome : uint8_t { kOk, kRejected, kCancelled, kErrored, kTransport };

struct Rec {
  uint8_t stmt = 0;
  int32_t binding = 0;
  Outcome outcome = kOk;
  bool client_traced = false;
  bool early = false;     ///< picked up before its scheduled time
  double sched_us = 0;    ///< scheduled arrival (open loop)
  double wake_us = 0;     ///< when the connection woke for it (early picks)
  double sent_us = 0;     ///< first byte of the request (BIND or EXECUTE)
  double exec_us = 0;     ///< EXECUTE sent
  double done_us = 0;     ///< last row received
  net::ExecReply exec;
  Digest digest;
  double scale = 1;  ///< HostSpeed::Scale of its segment

  double latency_ms() const { return (done_us - sched_us) / 1e3; }
  double server_ms() const {
    return exec.queue_wait_ms + exec.queue_ms + exec.compile_ms + exec.exec_ms +
           exec.serialize_ms;
  }
  double rtt_ms() const { return (done_us - exec_us) / 1e3; }
};

struct Conn {
  net::Client client;
  uint64_t handles[kMixSize] = {};
  uint64_t probe_handles[kQueries] = {};
  bool broken = false;
};

void Connect(Conn* c, uint16_t port, bool probes) {
  c->client.Connect("127.0.0.1", port, net::HelloRequest{});
  c->client.set_trace_requests(false);
  for (size_t m = 0; m < kMixSize; ++m) c->handles[m] = c->client.Prepare(kMix[m].oql);
  if (probes) {
    for (size_t q = 0; q < kQueries; ++q) {
      c->probe_handles[q] = c->client.Prepare(kAnalytic[q].oql);
    }
  }
}

// Sends one request on `c` and fills the timing / outcome fields of `rec`.
void Issue(Conn* c, uint64_t handle, bool parameterized, Rec* rec) {
  rec->sent_us = Tracer::Now();
  rec->exec_us = rec->sent_us;
  try {
    if (parameterized) {
      c->client.Bind({{"1", Value::Int(rec->binding)}});
      rec->exec_us = Tracer::Now();
    }
    c->client.set_trace_requests(rec->client_traced);
    net::ClientResult res = c->client.ExecutePrepared(handle, 0, kFetchBatch);
    rec->done_us = Tracer::Now();
    rec->exec = res.exec;
    rec->digest = DigestOfRows(res.rows);
    rec->outcome = kOk;
  } catch (const net::RemoteError& e) {
    rec->done_us = Tracer::Now();
    rec->outcome = e.code() == net::ErrorCode::kAdmission ? kRejected
                   : e.code() == net::ErrorCode::kCancelled ? kCancelled
                                                            : kErrored;
  } catch (const Error&) {
    rec->done_us = Tracer::Now();
    rec->outcome = kTransport;
    c->broken = true;
  }
}

// Adds one served request's spans: the client-side calls, and inside
// Client::ExecutePrepared the server phases from EXEC_OK laid end to end
// (their durations are the server's; their placement inside the call is
// not known, so they start where the call starts). Whatever the phases do
// not cover is the call's self time: the named residual.
void TraceRequest(Tracer* t, const Rec& rec) {
  t->BeginRequest("request", "bench", rec.sched_us);
  t->Close(0, rec.done_us);
  t->Add("driver.conn_wait", "bench", 0, rec.sched_us, rec.sent_us);
  if (rec.exec_us > rec.sent_us) t->Add("Client::Bind", "net", 0, rec.sent_us, rec.exec_us);
  int call = t->Add("Client::ExecutePrepared", "net", 0, rec.exec_us, rec.done_us);
  double at = rec.exec_us;
  auto phase = [&](const char* name, const char* layer, double ms) {
    t->Add(name, layer, call, at, at + ms * 1e3);
    at += ms * 1e3;
  };
  phase("server.queue_wait", "net", rec.exec.queue_wait_ms);
  phase("server.admission", "service", rec.exec.queue_ms);
  phase("server.compile", "service", rec.exec.compile_ms);
  phase("server.exec", "runtime", rec.exec.exec_ms);
  phase("server.serialize", "net", rec.exec.serialize_ms);
  t->EndRequest();
}

struct Phase {
  std::vector<Rec> recs;
  double wall_s = 0;
  double server_cpu_s = 0;
};

// Open loop: request i is due at start + i / rate. Each connection thread
// takes the next request in arrival order as soon as it is idle and sends
// it when due, so a request waits for a connection only when all are busy.
Phase OpenLoop(std::vector<std::unique_ptr<Conn>>& conns, const std::vector<Req>& seq,
               size_t first, size_t count, double rate, bool client_trace_alternate) {
  Phase ph;
  ph.recs.resize(count);
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const double start_us = Tracer::ToUs(start);
  std::vector<std::thread> threads;
  for (auto& conn : conns) {
    threads.emplace_back([&, c = conn.get()] {
      for (;;) {
        if (c->broken) return;
        const size_t i = next.fetch_add(1);
        if (i >= count) return;
        Rec& rec = ph.recs[i];
        const Req& q = seq[(first + i) % seq.size()];
        rec.stmt = q.stmt;
        rec.binding = q.binding;
        rec.client_traced = client_trace_alternate && i % 2 == 1;
        rec.sched_us = start_us + static_cast<double>(i) / rate * 1e6;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(i) / rate));
        if (Clock::now() < due) {
          rec.early = true;
          std::this_thread::sleep_until(due);
          rec.wake_us = Tracer::Now();
        }
        Issue(c, c->handles[q.stmt], kMix[q.stmt].parameterized, &rec);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ph.wall_s = (Tracer::Now() - start_us) / 1e6;
  // Requests never picked up (every connection broke) count as failed.
  for (size_t i = next.load(); i < count; ++i) ph.recs[i].outcome = kTransport;
  return ph;
}

// Closed loop: every connection sends its next request as soon as the
// previous one completes, until `seconds` have passed.
Phase ClosedLoop(std::vector<std::unique_ptr<Conn>>& conns, const std::vector<Req>& seq,
                 size_t first, double seconds, pid_t server) {
  Phase ph;
  std::atomic<size_t> next{first};
  std::mutex mu;
  const double cpu0 = PidCpuSeconds(server);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (auto& conn : conns) {
    threads.emplace_back([&, c = conn.get()] {
      std::vector<Rec> mine;
      while (!c->broken && Clock::now() < deadline) {
        const Req& q = seq[next.fetch_add(1) % seq.size()];
        Rec rec;
        rec.stmt = q.stmt;
        rec.binding = q.binding;
        rec.sched_us = Tracer::Now();
        Issue(c, c->handles[q.stmt], kMix[q.stmt].parameterized, &rec);
        mine.push_back(rec);
      }
      std::lock_guard<std::mutex> lock(mu);
      ph.recs.insert(ph.recs.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& t : threads) t.join();
  ph.wall_s = MsBetween(start, Clock::now()) / 1e3;
  ph.server_cpu_s = PidCpuSeconds(server) - cpu0;
  return ph;
}

// Server counters read over INTROSPECT (summed over label sets).
struct ServerTotals {
  double bytes_sent = 0, cache_hits = 0, cache_misses = 0, evictions = 0;
};

ServerTotals ReadServerTotals(uint16_t port) {
  net::Client c;
  c.Connect("127.0.0.1", port, net::HelloRequest{});
  obs::MetricsSnapshot snap =
      obs::SnapshotFromJson(c.Introspect(net::IntrospectRequest::kMetrics));
  c.Close();
  ServerTotals t;
  for (const obs::MetricSample& s : snap.samples) {
    if (s.name == "ldb_net_bytes_sent_total") t.bytes_sent += s.value;
    if (s.name == "ldb_plan_cache_hits_total") t.cache_hits += s.value;
    if (s.name == "ldb_plan_cache_misses_total") t.cache_misses += s.value;
    if (s.name == "ldb_plan_cache_evictions_total") t.evictions += s.value;
  }
  return t;
}

std::vector<double> Pick(const std::vector<Rec>& recs, double (*f)(const Rec&),
                         bool (*keep)(const Rec&)) {
  std::vector<double> v;
  for (const Rec& r : recs) {
    if (keep(r)) v.push_back(f(r));
  }
  return v;
}

}  // namespace

void RunServeMix(const Args& a, Report* r) {
  if (a.server_bin.empty()) throw std::runtime_error("serve-mix needs --server");
  const int conns_n = UsableCpus();
  // Segments of about a second, so each is scaled by the host speed read
  // right around it.
  const int segments = std::max(1, static_cast<int>(std::lround(a.seconds)));
  const double open_s = kOpenShare * a.seconds;
  const double closed_s = a.seconds - open_s;
  const std::string dump_path = ArtifactPath(a, ".dump");
  r->sizes = {{"employees", std::to_string(kScale)},
              {"departments", std::to_string(kScale / 40)},
              {"managers", std::to_string(kScale / 100)},
              {"connections", std::to_string(conns_n)},
              {"server_workers", std::to_string(conns_n)},
              {"offered_qps", std::to_string(kOfferedQps)},
              {"open_loop_s", std::to_string(open_s)},
              {"closed_loop_s", std::to_string(closed_s)}};

  // The seeded statement sequence: uniform over the mix, uniform bindings.
  std::mt19937_64 rng(a.seed);
  std::vector<Req> seq(1 << 16);
  {
    std::uniform_int_distribution<int> stmt(0, static_cast<int>(kMixSize) - 1);
    std::uniform_int_distribution<int> dno(0, kScale / 40 - 1);
    for (Req& q : seq) {
      q.stmt = static_cast<uint8_t>(stmt(rng));
      q.binding = dno(rng);
    }
  }

  // Set-up: generate and dump the database, start the server on it,
  // connect, PREPARE, and warm every statement on every connection.
  // Repeated so setup_s is a median; the traced run sets up once.
  std::unique_ptr<Database> db;
  ServerProc server;
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<double> setup_s, setup_raw_s;
  const int setups = a.trace ? 1 : 3;
  try {
    for (int rep = 0; rep < setups; ++rep) {
      conns.clear();
      StopServer(&server);
      db.reset();
      setup_raw_s.push_back(0);
      setup_s.push_back(ScaledSeconds(
          [&] {
            db = std::make_unique<Database>(MakeCompany(kScale, a.seed));
            if (!WriteFile(dump_path, DumpDatabaseToString(*db))) {
              throw std::runtime_error("cannot write " + dump_path);
            }
            server = StartServer(a.server_bin, dump_path, conns_n);
            for (int i = 0; i < conns_n; ++i) {
              conns.push_back(std::make_unique<Conn>());
              Connect(conns.back().get(), server.port, /*probes=*/i == 0);
            }
            for (auto& c : conns) {
              for (size_t m = 0; m < kMixSize; ++m) {
                for (int k = 0; k < 2; ++k) {
                  Rec warm;
                  Issue(c.get(), c->handles[m], kMix[m].parameterized, &warm);
                  if (warm.outcome != kOk) throw std::runtime_error("warm-up request failed");
                }
              }
            }
            for (size_t q = 0; q < kQueries; ++q) {
              Rec warm;
              Issue(conns[0].get(), conns[0]->probe_handles[q], false, &warm);
            }
          },
          &setup_raw_s.back()));
    }
    r->Set("setup_s", Median(setup_s), "s");

    // Timed phases, interleaved in segments of open loop, closed loop and
    // probes, so a burst of host noise lands on every metric alike instead
    // of on one phase. Between the phases the reference kernel reads the
    // host speed (the server is idle then), and the segment's timings are
    // scaled by it. In the traced run every other open segment is traced:
    // its every other request also carries a client trace context (the
    // server then attaches a profiler), and the untraced segments are the
    // base the tracing overhead is measured against.
    Phase open, traced, closed;
    std::vector<double> segment_qps, segment_scale;
    std::vector<std::vector<double>> probe_ms(kQueries);
    std::vector<Rec> probes;
    ServerTotals delta;
    const size_t open_n = static_cast<size_t>(kOfferedQps * open_s / segments);
    size_t next_req = 0;
    for (int seg = 0; seg < segments; ++seg) {
      HostSpeed host;
      const bool traced_seg = a.trace && seg % 2 == 1;
      host.SampleEveryCpu(kBurstRuns);
      Phase op = OpenLoop(conns, seq, next_req, open_n, kOfferedQps, traced_seg);
      next_req += open_n;

      host.SampleEveryCpu(kBurstRuns);
      const ServerTotals t0 = ReadServerTotals(server.port);
      Phase cl = ClosedLoop(conns, seq, next_req, closed_s / segments, server.pid);
      const ServerTotals t1 = ReadServerTotals(server.port);
      next_req += cl.recs.size();
      delta.bytes_sent += t1.bytes_sent - t0.bytes_sent;
      delta.cache_hits += t1.cache_hits - t0.cache_hits;
      delta.cache_misses += t1.cache_misses - t0.cache_misses;
      delta.evictions += t1.evictions - t0.evictions;

      // The paper's analytic queries served one at a time on the otherwise
      // idle server: client-observed latency of each.
      host.SampleEveryCpu(kBurstRuns);
      std::vector<Rec> pr;
      for (int rep = 0; rep < kProbeReps; ++rep) {
        for (size_t q = 0; q < kQueries; ++q) {
          Rec rec;
          rec.stmt = static_cast<uint8_t>(q);
          Issue(conns[0].get(), conns[0]->probe_handles[q], false, &rec);
          rec.sched_us = rec.sent_us;
          pr.push_back(rec);
        }
      }
      host.SampleEveryCpu(kBurstRuns);

      const double scale = host.Scale();
      segment_scale.push_back(scale);
      for (std::vector<Rec>* recs : {&op.recs, &cl.recs, &pr}) {
        for (Rec& rec : *recs) rec.scale = scale;
      }
      Phase& into = traced_seg ? traced : open;
      into.recs.insert(into.recs.end(), op.recs.begin(), op.recs.end());
      into.wall_s += op.wall_s;
      size_t ok = 0;
      for (const Rec& rec : cl.recs) ok += rec.outcome == kOk;
      segment_qps.push_back(static_cast<double>(ok) / cl.wall_s / scale);
      closed.recs.insert(closed.recs.end(), cl.recs.begin(), cl.recs.end());
      closed.wall_s += cl.wall_s;
      closed.server_cpu_s += cl.server_cpu_s;
      for (const Rec& rec : pr) probe_ms[rec.stmt].push_back(rec.latency_ms() * scale);
      probes.insert(probes.end(), pr.begin(), pr.end());
    }
    r->Set("peak_rss_mb", PidPeakRssMb(server.pid), "MiB");
    conns.clear();
    StopServer(&server);
    std::remove(dump_path.c_str());

    // Outcomes and output checks (outside the timed phases): every served
    // result must equal the in-process result for the same binding.
    QueryService local(*db);
    auto session = local.OpenSession();
    std::map<std::pair<const char*, int>, Digest> expected;  ///< (text, $1)
    auto expect = [&](const char* oql, bool parameterized, int binding) {
      auto it = expected.find({oql, binding});
      if (it != expected.end()) return it->second;
      session->ClearBindings();
      if (parameterized) session->Bind("1", Value::Int(binding));
      Digest d = DigestOf(local.Execute(*session, oql));
      expected[{oql, binding}] = d;
      return d;
    };
    uint64_t outcome_counts[5] = {};
    uint64_t wrong = 0;
    auto account = [&](const std::vector<Rec>& recs, bool mix) {
      for (const Rec& rec : recs) {
        r->Attempt();
        ++outcome_counts[rec.outcome];
        if (rec.outcome != kOk) {
          r->Fail();
          continue;
        }
        const Digest want =
            mix ? expect(kMix[rec.stmt].oql, kMix[rec.stmt].parameterized, rec.binding)
                : expect(kAnalytic[rec.stmt].oql, false, 0);
        if (!(rec.digest == want)) {
          ++wrong;
          r->Fail();
        }
      }
    };
    account(open.recs, true);
    account(traced.recs, true);
    account(closed.recs, true);
    account(probes, false);
    r->Check(wrong == 0, "serve-mix: " + std::to_string(wrong) +
                             " served results differ from the in-process result");

    // End-to-end metrics, each timing scaled by its segment's host speed. A
    // failed request counts as missing any latency limit: it enters the
    // percentiles as the whole open-loop window.
    std::vector<double> lat;
    for (const Rec& rec : open.recs) {
      lat.push_back(rec.outcome == kOk ? rec.latency_ms() * rec.scale : open_s * 1e3);
    }
    r->Set("latency_p50_ms", Percentile(lat, 0.50), "ms");
    r->Set("latency_p95_ms", Percentile(lat, 0.95), "ms");
    r->Set("throughput_qps", Median(segment_qps), "1/s");
    for (size_t q = 0; q < kQueries; ++q) {
      r->Set(std::string(kAnalytic[q].key) + "_ms", Median(probe_ms[q]), "ms");
    }

    char line[512];
    std::snprintf(line, sizeof(line),
                  "serve-mix: open loop %zu requests at %.0f q/s over %d "
                  "connections in %.2f s; closed loop %zu requests in %.2f s "
                  "(server %.2f cores)\noutcomes: ok %llu, rejected %llu, "
                  "cancelled %llu, errors %llu, transport %llu, wrong %llu\n",
                  open.recs.size(), kOfferedQps, conns_n, open.wall_s,
                  closed.recs.size(), closed.wall_s,
                  closed.server_cpu_s / closed.wall_s,
                  static_cast<unsigned long long>(outcome_counts[kOk]),
                  static_cast<unsigned long long>(outcome_counts[kRejected]),
                  static_cast<unsigned long long>(outcome_counts[kCancelled]),
                  static_cast<unsigned long long>(outcome_counts[kErrored]),
                  static_cast<unsigned long long>(outcome_counts[kTransport]),
                  static_cast<unsigned long long>(wrong));
    r->text += line;
    const std::vector<double> raw =
        Pick(open.recs, [](const Rec& x) { return x.latency_ms(); },
             [](const Rec& x) { return x.outcome == kOk; });
    std::snprintf(line, sizeof(line),
                  "host scale per segment: median %.3f, min %.3f, max %.3f; set-up raw s "
                  "%.3f; open-loop p99 %.3f ms scaled; raw open-loop p50 %.3f p95 %.3f "
                  "p99 %.3f ms\n",
                  Median(segment_scale), Percentile(segment_scale, 0),
                  Percentile(segment_scale, 1), Median(setup_raw_s), Percentile(lat, 0.99),
                  Percentile(raw, 0.5), Percentile(raw, 0.95), Percentile(raw, 0.99));
    r->text += line;
    r->text += "open-loop latency from scheduled arrival, per statement (raw ms):";
    for (size_t m = 0; m < kMixSize; ++m) {
      std::vector<double> v;
      for (const Rec& rec : open.recs) {
        if (rec.stmt == m && rec.outcome == kOk) v.push_back(rec.latency_ms());
      }
      std::snprintf(line, sizeof(line), " %s p50 %.3f p99 %.3f (n=%zu);", kMix[m].key,
                    Percentile(v, 0.5), Percentile(v, 0.99), v.size());
      r->text += line;
    }
    r->text += "\n";
    if (!a.trace) return;

    // Per-layer metrics (traced run), from the traced open-loop half.
    Tracer tracer;
    const std::vector<Rec>& tr = traced.recs;
    auto ok = [](const Rec& x) { return x.outcome == kOk; };
    auto ok_untraced = [](const Rec& x) { return x.outcome == kOk && !x.client_traced; };
    for (const Rec& rec : tr) {
      if (ok(rec)) TraceRequest(&tracer, rec);
    }
    auto rtt = Pick(tr, [](const Rec& x) { return x.rtt_ms(); }, ok);
    auto residual =
        Pick(tr, [](const Rec& x) { return x.rtt_ms() - x.server_ms(); }, ok);
    r->Set("net.rtt_p50_ms", Percentile(rtt, 0.5), "ms");
    r->Set("net.rtt_p99_ms", Percentile(rtt, 0.99), "ms");
    r->Set("net.residual_p50_ms", Percentile(residual, 0.5), "ms");
    r->Set("net.residual_p99_ms", Percentile(residual, 0.99), "ms");
    r->Set("net.server_ms", Median(Pick(tr, [](const Rec& x) { return x.server_ms(); }, ok)),
           "ms");
    r->Set("net.serialize_ms",
           Median(Pick(tr, [](const Rec& x) { return x.exec.serialize_ms; }, ok)), "ms");
    double frames = 0;
    for (const Rec& rec : tr) {
      const double batches = std::ceil(static_cast<double>(rec.exec.rows) / kFetchBatch);
      frames += std::max(1.0, batches) - 1;  // the first batch rides EXEC_OK
    }
    r->Set("net.fetch_frames_per_req", tr.empty() ? 0 : frames / tr.size(), "count");
    r->Set("net.bytes_out_per_req",
           closed.recs.empty() ? 0 : delta.bytes_sent / closed.recs.size(), "bytes");
    r->Set("net.server_cpu_cores", closed.server_cpu_s / closed.wall_s, "cores");
    ReportPlanCache(delta.cache_hits, delta.cache_misses, delta.evictions, r);
    r->Set("service.admission_ms",
           Percentile(Pick(tr, [](const Rec& x) { return x.exec.queue_ms; }, ok), 0.99),
           "ms");
    r->Set("service.queue_wait_ms",
           Percentile(Pick(tr, [](const Rec& x) { return x.exec.queue_wait_ms; }, ok), 0.99),
           "ms");
    r->Set("service.overhead_us",
           Median(Pick(tr, [](const Rec& x) { return (x.exec.queue_ms + x.exec.compile_ms) * 1e3; },
                       ok)),
           "us");
    auto early = [](const Rec& x) { return x.outcome == kOk && x.early; };
    r->Set("driver.send_lag_ms",
           Percentile(Pick(tr, [](const Rec& x) { return (x.wake_us - x.sched_us) / 1e3; },
                           early),
                      0.99),
           "ms");
    r->Set("driver.conn_wait_ms",
           Percentile(Pick(tr, [](const Rec& x) { return (x.sent_us - x.sched_us) / 1e3; }, ok),
                      0.99),
           "ms");
    double trace_cost = 0;
    for (size_t m = 0; m < kMixSize; ++m) {
      std::vector<double> exec, exec_traced, latency;
      for (const Rec& rec : tr) {
        if (rec.stmt != m || rec.outcome != kOk) continue;
        (rec.client_traced ? exec_traced : exec).push_back(rec.exec.exec_ms);
        if (!rec.client_traced) latency.push_back(rec.latency_ms());
      }
      r->Set(std::string("runtime.exec_ms.") + kMix[m].key, Median(exec), "ms");
      r->Set(std::string("driver.latency_p50_ms.") + kMix[m].key, Median(latency), "ms");
      trace_cost += (Median(exec_traced) - Median(exec)) / kMixSize;
    }
    r->Set("obs.client_trace_cost_ms", trace_cost, "ms");
    r->Set("obs.bench_trace_overhead_ms",
           Median(Pick(tr, [](const Rec& x) { return x.latency_ms(); }, ok_untraced)) -
               Median(lat),
           "ms");

    // The latency account of the traced half, per request on average.
    std::string acct = "latency account, traced open-loop half (mean ms per ok request):\n";
    {
      double n = 0, wait = 0, bind = 0, server = 0, resid = 0, total = 0, worst = 0;
      for (const Rec& rec : tr) {
        if (!ok(rec)) continue;
        const double parts[4] = {(rec.sent_us - rec.sched_us) / 1e3,
                                 (rec.exec_us - rec.sent_us) / 1e3, rec.server_ms(),
                                 rec.rtt_ms() - rec.server_ms()};
        n += 1;
        wait += parts[0];
        bind += parts[1];
        server += parts[2];
        resid += parts[3];
        total += rec.latency_ms();
        worst = std::max(worst, std::fabs(parts[0] + parts[1] + parts[2] + parts[3] -
                                          rec.latency_ms()));
      }
      if (n > 0) {
        std::snprintf(line, sizeof(line),
                      "  conn_wait %.4f + bind %.4f + server phases %.4f + "
                      "residual %.4f = %.4f; latency %.4f; worst per-request "
                      "gap %.2e ms\n",
                      wait / n, bind / n, server / n, resid / n,
                      (wait + bind + server + resid) / n, total / n, worst);
        acct += line;
      }
    }

    // Compile stages of the four statements, and the runtime probes of the
    // analytic queries, both in-process on the same database.
    std::vector<StageTimes> stages;
    for (int rep = 0; rep < 5; ++rep) {
      for (const MixStatement& m : kMix) {
        StageTimes st;
        RunStages(*db, m.oql, nullptr, /*execute=*/false, &st);
        stages.push_back(st);
      }
    }
    ReportStageMedians(stages, r);
    for (const NamedQuery& q : kAnalytic) {
      RuntimeResult rr = MeasureRuntime(*db, q, conns_n, 5, r);
      r->Check(rr.serial == rr.parallel,
               std::string("serve-mix: parallel result differs for ") + q.key);
    }
    WriteTraceArtifacts(a, tracer, "serve-mix (traced open-loop half)", acct, r);
  } catch (...) {
    conns.clear();
    StopServer(&server);
    std::remove(dump_path.c_str());
    throw;
  }
}

}  // namespace ldbbench
