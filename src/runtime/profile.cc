#include "src/runtime/profile.h"

#include <algorithm>
#include <sstream>

#include "src/core/optimizer.h"
#include "src/runtime/error.h"
#include "src/runtime/json.h"

namespace ldb {

void OperatorStats::MergeFrom(const OperatorStats& o) {
  opens += o.opens;
  next_calls += o.next_calls;
  rows_out += o.rows_out;
  open_ns += o.open_ns;
  next_ns += o.next_ns;
  merge_ns += o.merge_ns;
  build_rows += o.build_rows;
  build_workers = std::max(build_workers, o.build_workers);
  groups += o.groups;
  short_circuits += o.short_circuits;
  mem_bytes += o.mem_bytes;
}

OperatorStats* QueryProfiler::Register(int op_id, PhysKind kind,
                                       const std::string& label) {
  auto it = by_id_.find(op_id);
  if (it != by_id_.end()) return it->second;
  ops_.emplace_back();
  OperatorStats* s = &ops_.back();
  s->op_id = op_id;
  s->kind = kind;
  s->label = label;
  by_id_[op_id] = s;
  return s;
}

const OperatorStats* QueryProfiler::Find(int op_id) const {
  auto it = by_id_.find(op_id);
  return it == by_id_.end() ? nullptr : it->second;
}

void QueryProfiler::MergeFrom(const QueryProfiler& other) {
  for (const OperatorStats* s : other.Operators()) {
    Register(s->op_id, s->kind, s->label)->MergeFrom(*s);
  }
  workers.insert(workers.end(), other.workers.begin(), other.workers.end());
  morsels.insert(morsels.end(), other.morsels.begin(), other.morsels.end());
}

std::vector<const OperatorStats*> QueryProfiler::Operators() const {
  std::vector<const OperatorStats*> out;
  out.reserve(ops_.size());
  for (const OperatorStats& s : ops_) out.push_back(&s);
  std::sort(out.begin(), out.end(),
            [](const OperatorStats* a, const OperatorStats* b) {
              return a->op_id < b->op_id;
            });
  return out;
}

// ---------------------------------------------------------------------------
// JSON through src/runtime/json.h: doubles print with %.17g so
// ProfileFromJson(ProfileToJson(p)) reproduces every value bit-exactly.
// ---------------------------------------------------------------------------

namespace {

PhysKind KindFromName(const std::string& name) {
  static const std::pair<const char*, PhysKind> kTable[] = {
      {"UnitRow", PhysKind::kUnitRow},
      {"TableScan", PhysKind::kTableScan},
      {"IndexScan", PhysKind::kIndexScan},
      {"Filter", PhysKind::kFilter},
      {"NLJoin", PhysKind::kNLJoin},
      {"HashJoin", PhysKind::kHashJoin},
      {"NLOuterJoin", PhysKind::kNLOuterJoin},
      {"HashOuterJoin", PhysKind::kHashOuterJoin},
      {"Unnest", PhysKind::kUnnest},
      {"OuterUnnest", PhysKind::kOuterUnnest},
      {"HashNest", PhysKind::kHashNest},
      {"Reduce", PhysKind::kReduce},
      {"RangeNestJoin", PhysKind::kRangeNestJoin},
      {"HashNestJoin", PhysKind::kHashNestJoin},
  };
  for (const auto& [n, k] : kTable) {
    if (name == n) return k;
  }
  throw ParseError("profile JSON: unknown operator kind '" + name + "'");
}

}  // namespace

std::string ProfileToJson(const QueryProfiler& prof) {
  std::ostringstream os;
  os << "{\"threads\": " << prof.threads_used
     << ", \"morsel_size\": " << prof.morsel_size << ", \"mode\": ";
  os << JsonQuote(prof.parallel_mode.empty() ? "serial" : prof.parallel_mode);
  os << ", \"wall_ns\": ";
  os << JsonNumber(prof.wall_ns);
  os << ", \"plan_cached\": " << prof.plan_cached
     << ", \"cache_hits\": " << prof.cache_hits
     << ", \"cache_misses\": " << prof.cache_misses
     << ", \"cache_evictions\": " << prof.cache_evictions;
  os << ", \"operators\": [";
  bool first = true;
  for (const OperatorStats* s : prof.Operators()) {
    if (!first) os << ", ";
    first = false;
    os << "{\"id\": " << s->op_id << ", \"kind\": ";
    os << JsonQuote(PhysKindName(s->kind));
    os << ", \"label\": ";
    os << JsonQuote(s->label);
    os << ", \"opens\": " << s->opens << ", \"next_calls\": " << s->next_calls
       << ", \"rows_out\": " << s->rows_out << ", \"open_ns\": ";
    os << JsonNumber(s->open_ns);
    os << ", \"next_ns\": ";
    os << JsonNumber(s->next_ns);
    os << ", \"merge_ns\": ";
    os << JsonNumber(s->merge_ns);
    os << ", \"build_rows\": " << s->build_rows
       << ", \"build_workers\": " << s->build_workers
       << ", \"groups\": " << s->groups
       << ", \"short_circuits\": " << s->short_circuits
       << ", \"mem_bytes\": " << s->mem_bytes << "}";
  }
  os << "], \"workers\": [";
  first = true;
  for (const WorkerStats& w : prof.workers) {
    if (!first) os << ", ";
    first = false;
    os << "{\"worker\": " << w.worker << ", \"morsels\": " << w.morsels
       << ", \"rows\": " << w.rows << ", \"busy_ns\": ";
    os << JsonNumber(w.busy_ns);
    os << "}";
  }
  os << "], \"morsels\": [";
  first = true;
  for (const MorselStats& m : prof.morsels) {
    if (!first) os << ", ";
    first = false;
    os << "{\"index\": " << m.index << ", \"lo\": " << m.lo
       << ", \"hi\": " << m.hi << ", \"rows\": " << m.rows
       << ", \"worker\": " << m.worker << ", \"start_ns\": ";
    os << JsonNumber(m.start_ns);
    os << ", \"dur_ns\": ";
    os << JsonNumber(m.dur_ns);
    os << "}";
  }
  os << "]}";
  return os.str();
}

QueryProfiler ProfileFromJson(const std::string& json) {
  QueryProfiler prof;
  JsonReader r(json, "profile JSON");
  r.ExpectObjectStart();
  std::string key;
  while (r.NextKey(&key)) {
    if (key == "threads") {
      prof.threads_used = static_cast<int>(r.ParseNumber());
    } else if (key == "morsel_size") {
      prof.morsel_size = r.ParseUint();
    } else if (key == "mode") {
      prof.parallel_mode = r.ParseString();
    } else if (key == "wall_ns") {
      prof.wall_ns = r.ParseNumber();
    } else if (key == "plan_cached") {
      prof.plan_cached = r.ParseUint();
    } else if (key == "cache_hits") {
      prof.cache_hits = r.ParseUint();
    } else if (key == "cache_misses") {
      prof.cache_misses = r.ParseUint();
    } else if (key == "cache_evictions") {
      prof.cache_evictions = r.ParseUint();
    } else if (key == "operators") {
      r.ExpectArrayStart();
      while (r.NextElement()) {
        r.ExpectObjectStart();
        int id = -1;
        PhysKind kind = PhysKind::kUnitRow;
        std::string label;
        OperatorStats tmp;
        std::string f;
        while (r.NextKey(&f)) {
          if (f == "id") id = static_cast<int>(r.ParseNumber());
          else if (f == "kind") kind = KindFromName(r.ParseString());
          else if (f == "label") label = r.ParseString();
          else if (f == "opens") tmp.opens = r.ParseUint();
          else if (f == "next_calls") tmp.next_calls = r.ParseUint();
          else if (f == "rows_out") tmp.rows_out = r.ParseUint();
          else if (f == "open_ns") tmp.open_ns = r.ParseNumber();
          else if (f == "next_ns") tmp.next_ns = r.ParseNumber();
          else if (f == "merge_ns") tmp.merge_ns = r.ParseNumber();
          else if (f == "build_rows") tmp.build_rows = r.ParseUint();
          else if (f == "build_workers") tmp.build_workers = r.ParseUint();
          else if (f == "groups") tmp.groups = r.ParseUint();
          else if (f == "short_circuits") tmp.short_circuits = r.ParseUint();
          else if (f == "mem_bytes") tmp.mem_bytes = r.ParseUint();
          else r.SkipValue();
        }
        OperatorStats* s = prof.Register(id, kind, label);
        s->MergeFrom(tmp);
      }
    } else if (key == "workers") {
      r.ExpectArrayStart();
      while (r.NextElement()) {
        r.ExpectObjectStart();
        WorkerStats w;
        std::string f;
        while (r.NextKey(&f)) {
          if (f == "worker") w.worker = static_cast<int>(r.ParseNumber());
          else if (f == "morsels") w.morsels = r.ParseUint();
          else if (f == "rows") w.rows = r.ParseUint();
          else if (f == "busy_ns") w.busy_ns = r.ParseNumber();
          else r.SkipValue();
        }
        prof.workers.push_back(w);
      }
    } else if (key == "morsels") {
      r.ExpectArrayStart();
      while (r.NextElement()) {
        r.ExpectObjectStart();
        MorselStats m;
        std::string f;
        while (r.NextKey(&f)) {
          if (f == "index") m.index = r.ParseUint();
          else if (f == "lo") m.lo = r.ParseUint();
          else if (f == "hi") m.hi = r.ParseUint();
          else if (f == "rows") m.rows = r.ParseUint();
          else if (f == "worker") m.worker = static_cast<int>(r.ParseNumber());
          else if (f == "start_ns") m.start_ns = r.ParseNumber();
          else if (f == "dur_ns") m.dur_ns = r.ParseNumber();
          else r.SkipValue();
        }
        prof.morsels.push_back(m);
      }
    } else {
      r.SkipValue();
    }
  }
  return prof;
}

std::string CompileTraceToJson(const CompileTrace& trace) {
  std::ostringstream os;
  os << "{\"stages\": [";
  bool first = true;
  for (const StageTiming& st : trace.stages) {
    if (!first) os << ", ";
    first = false;
    os << "{\"stage\": ";
    os << JsonQuote(st.stage);
    os << ", \"ms\": ";
    os << JsonNumber(st.ms);
    os << "}";
  }
  os << "], \"normalize_rules\": [";
  first = true;
  for (const RuleFiring& rf : trace.normalize_rules) {
    if (!first) os << ", ";
    first = false;
    os << "{\"rule\": ";
    os << JsonQuote(rf.rule);
    os << ", \"count\": " << rf.count << "}";
  }
  os << "], \"unnest_steps\": [";
  first = true;
  for (const UnnestStep& step : trace.unnest_steps) {
    if (!first) os << ", ";
    first = false;
    os << "{\"rule\": ";
    os << JsonQuote(step.rule);
    os << ", \"description\": ";
    os << JsonQuote(step.description);
    os << "}";
  }
  os << "], \"verify_stages\": [";
  first = true;
  for (const VerifyStageSummary& v : trace.verify_stages) {
    if (!first) os << ", ";
    first = false;
    os << "{\"stage\": ";
    os << JsonQuote(v.stage);
    os << ", \"checks\": " << v.checks << ", \"findings\": " << v.findings
       << ", \"ms\": ";
    os << JsonNumber(v.ms);
    os << "}";
  }
  os << "], \"simplify_rewrites\": " << trace.simplify_rewrites
     << ", \"total_ms\": ";
  os << JsonNumber(trace.total_ms);
  os << "}";
  return os.str();
}

}  // namespace ldb
