// The temporadb benchmark.
//
//   perfbench --workload <bitemporal_reads|when_join|payroll_durable>
//             --seed <n> --seconds <s> --trace <0|1> [--quick]
//
// One process, one client, closed loop: each statement is issued after the
// previous one returns.  Every run starts from an empty database directory
// under .bench_run/ in the working directory and removes it on exit.  The
// last line of standard output is a JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1); progress and check
// failures go to standard error.  Exit status 1 means a check of the
// engine's outputs failed, 2 a usage or environment error.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/database.h"
#include "gen.h"
#include "model.h"
#include "temporal/partition.h"
#include "tquel/analyzer.h"
#include "tquel/evaluator.h"
#include "tquel/parser.h"
#include "tracefs.h"
#include "txn/clock.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using temporadb::Chronon;
using temporadb::Database;
using temporadb::DatabaseOptions;
using temporadb::Period;
using temporadb::Rowset;

const Clock::time_point g_process_start = Clock::now();

double UsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Statistics.

// Nearest-rank percentile of an unsorted sample; p in [0, 100], where 0
// gives the smallest.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}
double Median(const std::vector<double>& v) { return Percentile(v, 50); }
double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// Keeps in (*best)[i] the smallest sample of operation i seen so far.
void KeepMin(std::vector<double>* best, size_t i, double us) {
  if (best->size() <= i) {
    best->resize(i + 1, std::numeric_limits<double>::infinity());
  }
  (*best)[i] = std::min((*best)[i], us);
}

// The samples of `best` that were taken.
std::vector<double> Taken(const std::vector<double>& best) {
  std::vector<double> out;
  for (double v : best) {
    if (std::isfinite(v)) out.push_back(v);
  }
  return out;
}

// Moves the (single) benchmark thread to the next CPU of the set it was
// started with, round-robin.  On a shared host the CPUs run at different
// speeds, each changing over minutes with the load of other tenants; a run
// that stays on one CPU measures that CPU's share of the load.  Visiting
// every CPU in turn lets each operation's fastest time (see PrintResult)
// come from the least loaded of them.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Workload sizes.

struct Config {
  CorpusSpec spec;
  size_t corpus_updates = 0;  ///< Mixed updates loaded at setup.
  size_t queries = 0;         ///< Read or join list length (one pass).
  uint64_t join_band = 0;
  size_t stream = 0;          ///< payroll_durable: statements per round.
  size_t check_sample = 0;    ///< Queries checked against the model.
  size_t min_ops = 200;       ///< Timed operations at least (p95 support).
};

std::optional<Config> MakeConfig(const std::string& workload, bool quick) {
  Config c;
  if (workload == "bitemporal_reads") {
    c.spec.employees = quick ? 60 : 500;
    c.corpus_updates = quick ? 600 : 24000;
    c.queries = quick ? 48 : 240;
    c.check_sample = quick ? 48 : 72;
  } else if (workload == "when_join") {
    c.spec.employees = quick ? 40 : 120;
    c.corpus_updates = quick ? 300 : 1200;
    c.queries = quick ? 8 : 40;
    c.join_band = quick ? 8 : 12;
    c.check_sample = quick ? 8 : 40;
  } else if (workload == "payroll_durable") {
    c.spec.employees = quick ? 60 : 500;
    c.corpus_updates = quick ? 300 : 8000;
    c.stream = quick ? 200 : 2000;
  } else {
    return std::nullopt;
  }
  if (quick) c.min_ops = 1;
  return c;
}

// ---------------------------------------------------------------------------
// Engine rows to engine-neutral rows.

int64_t Day(Chronon c) {
  if (c.IsForever()) return kInf;
  if (c.IsBeginning()) return kNegInf;
  return c.days();
}

std::vector<CRow> ToRows(const Rowset& rs) {
  std::vector<CRow> out;
  out.reserve(rs.size());
  for (const temporadb::Row& row : rs.rows()) {
    CRow r;
    for (size_t i = 0; i < row.values.size(); ++i) {
      if (i > 0) r.values += '|';
      const temporadb::Value& v = row.values[i];
      switch (v.type()) {
        case temporadb::ValueType::kInt:
          r.values += std::to_string(v.AsInt());
          break;
        case temporadb::ValueType::kString:
          r.values += v.AsString();
          break;
        default:
          r.values += v.ToString();
      }
    }
    if (row.valid.has_value()) {
      r.vf = Day(row.valid->begin());
      r.vt = Day(row.valid->end());
    }
    if (row.txn.has_value()) {
      r.ts = Day(row.txn->begin());
      r.te = Day(row.txn->end());
    }
    out.push_back(std::move(r));
  }
  return out;
}

double DirBytes(const fs::path& dir) {
  double total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += static_cast<double>(e.file_size(ec));
  }
  return total;
}

// The end of the day that starts at ops[begin].
size_t DayEnd(const std::vector<Op>& ops, size_t begin) {
  size_t end = begin;
  while (end < ops.size() && ops[end].day == ops[begin].day) ++end;
  return end;
}

// ---------------------------------------------------------------------------
// Per-layer samples of the traced run.

struct Trace {
  std::vector<double> parse_read, parse_dml, analyze, evaluate, join_loop,
      rows_out, scan, scanned_per_out, prune_ratio, stage_sum, query;
  std::map<std::string, std::vector<double>> execute;  // By DML kind.
  std::vector<double> pin;
  std::vector<double> checkpoint_first, checkpoint_last, open;
  // Storage, accumulated over the DML and checkpoint phases.
  IoCounters dml_io, checkpoint_io, recovery_io;
  double dml_stmts = 0;
  double checkpoint_rounds = 0;
  double recovery_opens = 0;
  std::vector<double> dml_sync_us;
  // Overhead: time of traced vs untraced execution of the same work.
  double traced_us = 0, untraced_us = 0;
  double traced_n = 0, untraced_n = 0;
  std::map<std::string, double> sealed, versions;
};

// ---------------------------------------------------------------------------

class Bench {
 public:
  Bench(std::string workload, uint64_t seed, double seconds, bool trace,
        bool quick, Config cfg)
      : workload_(std::move(workload)),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        quick_(quick),
        cfg_(cfg),
        counting_fs_(temporadb::FileSystem::Default()) {
    root_ = fs::path(".bench_run") /
            (workload_ + "-" + std::to_string(::getpid()));
  }
  ~Bench() {
    db_.reset();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  int Run();

 private:
  // Setup and database lifecycle.
  bool Open(const fs::path& dir, bool traced, bool ranges = true);
  bool SetupCorpus(const fs::path& dir);
  bool CommitDay(const std::vector<Op>& ops, size_t begin, size_t end,
                 bool traced, const size_t* expected,
                 std::vector<size_t>* counts, std::vector<double>* stmt_us,
                 double* commit_us);
  bool Load(const std::vector<Op>& ops, std::vector<size_t>* counts);
  void CheckCorpusCounts();
  bool Checkpoint(double* us);
  void RecordStore();

  // Workloads.
  bool RunReads(bool joins);
  bool RunPayroll();

  // Reads.
  std::optional<Rowset> Query(const std::string& text);
  std::optional<Rowset> SnapshotQuery(const std::string& text);
  std::optional<Rowset> Staged(const std::string& text, bool snapshot);
  bool TimedPasses(const fs::path& dir,
                   const std::vector<perfbench::Query>& list, bool snapshots);
  bool Maintain(const fs::path& dir, bool first);
  void CheckQueries(const std::vector<perfbench::Query>& list, bool snapshots);
  void CheckProperties(int64_t last_day);
  bool Reopen(const fs::path& dir, bool traced, double* us);
  std::vector<std::vector<CRow>> ReadContent(int64_t first, int64_t last);
  void CheckContent(const std::vector<std::vector<CRow>>& before,
                    int64_t first, int64_t last, const char* what);
  void SelfTest(int64_t first, int64_t last);
  void TimePins();

  void Fail(const std::string& what) {
    if (failures_ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++failures_;
  }
  void PrintResult();

  const std::string workload_;
  const uint64_t seed_;
  const double seconds_;
  const bool trace_;
  const bool quick_;
  const Config cfg_;

  fs::path root_;
  temporadb::ManualClock clock_;
  CountingFileSystem counting_fs_;
  temporadb::ScanStats scan_stats_;
  std::unique_ptr<Database> db_;
  Model model_;
  std::vector<Op> corpus_;
  std::vector<size_t> corpus_counts_;
  std::vector<Op> stream_;

  // End-to-end samples.
  double setup_s_ = 0;
  std::vector<double> op_us_;
  std::map<std::string, std::vector<double>> class_us_;  // By query class
                                                         // or DML kind.
  // Each operation of the fixed list or stream is repeated on every pass
  // or round; these keep its fastest time (see PrintResult).
  std::vector<double> best_op_us_;      // By query or statement.
  std::vector<std::string> best_class_;  // Its class or DML kind.
  std::vector<double> best_commit_us_;  // By day of the stream.
  std::vector<double> best_checkpoint_us_;  // By checkpoint of a round.
  std::vector<double> checkpoint_s_, reopen_s_, disk_bytes_;
  uint64_t attempted_ = 0, failed_ = 0;
  size_t failures_ = 0;
  Trace tr_;
};

bool Bench::Open(const fs::path& dir, bool traced, bool ranges) {
  db_.reset();
  DatabaseOptions opt;
  opt.path = dir.string();
  opt.clock = &clock_;
  if (traced) {
    opt.fs = &counting_fs_;
    opt.store_options.scan_stats = &scan_stats_;
  }
  auto db = Database::Open(opt);
  if (!db.ok()) {
    Fail("open " + opt.path + ": " + db.status().ToString());
    return false;
  }
  db_ = std::move(*db);
  if (!ranges) return true;
  for (const std::string& s : SchemaStatements()) {
    if (s.rfind("range", 0) != 0) continue;
    auto r = db_->Execute(s);
    if (!r.ok()) {
      Fail(s + ": " + r.status().ToString());
      return false;
    }
  }
  return true;
}

// Commits ops[begin, end), one day's statements, as one transaction,
// checking each affected count against `expected` (when given) and
// recording it in `counts` (when given).  Returns each statement's Execute
// time in `stmt_us` and the commit's in `commit_us`.  With `traced`, also
// times the parse and the Execute by DML kind and tallies the storage I/O.
bool Bench::CommitDay(const std::vector<Op>& ops, size_t begin, size_t end,
                      bool traced, const size_t* expected,
                      std::vector<size_t>* counts,
                      std::vector<double>* stmt_us, double* commit_us) {
  const IoCounters io0 = counting_fs_.counters();
  const size_t syncs0 = counting_fs_.sync_latencies_us().size();
  clock_.SetTime(Chronon(ops[begin].day));
  auto txn = db_->Begin();
  if (!txn.ok()) {
    Fail("begin: " + txn.status().ToString());
    return false;
  }
  for (size_t i = begin; i < end; ++i) {
    const std::string text = RenderOp(ops[i]);
    if (traced) {
      const auto p0 = Clock::now();
      auto parsed = temporadb::tquel::ParseOne(text);
      tr_.parse_dml.push_back(UsSince(p0));
      if (!parsed.ok()) Fail("parse " + text);
    }
    const auto t0 = Clock::now();
    auto r = db_->Execute(text);
    const double us = UsSince(t0);
    ++attempted_;
    if (!r.ok()) {
      ++failed_;
      Fail(text + ": " + r.status().ToString());
      return false;
    }
    if (traced) tr_.execute[OpKindName(ops[i])].push_back(us);
    if (stmt_us != nullptr) stmt_us->push_back(us);
    if (counts != nullptr) counts->push_back(r->count);
    if (expected != nullptr && r->count != expected[i - begin]) {
      Fail(text + ": affected " + std::to_string(r->count) + ", model " +
           std::to_string(expected[i - begin]));
    }
  }
  const auto t0 = Clock::now();
  auto s = db_->Commit(*txn);
  if (commit_us != nullptr) *commit_us = UsSince(t0);
  if (!s.ok()) {
    Fail("commit: " + s.ToString());
    return false;
  }
  if (traced) {
    tr_.dml_io = tr_.dml_io + (counting_fs_.counters() - io0);
    tr_.dml_stmts += static_cast<double>(end - begin);
    const auto& lat = counting_fs_.sync_latencies_us();
    tr_.dml_sync_us.insert(tr_.dml_sync_us.end(), lat.begin() + syncs0,
                           lat.end());
  }
  return true;
}

// Loads `ops` one transaction per day, recording each statement's affected
// count.
bool Bench::Load(const std::vector<Op>& ops, std::vector<size_t>* counts) {
  for (size_t i = 0; i < ops.size(); i = DayEnd(ops, i)) {
    if (!CommitDay(ops, i, DayEnd(ops, i), trace_, nullptr, counts, nullptr,
                   nullptr)) {
      return false;
    }
  }
  return true;
}

bool Bench::Checkpoint(double* us) {
  const IoCounters io0 = counting_fs_.counters();
  const auto t0 = Clock::now();
  auto s = db_->Checkpoint();
  *us = UsSince(t0);
  if (!s.ok()) {
    Fail("checkpoint: " + s.ToString());
    return false;
  }
  if (trace_) tr_.checkpoint_io = tr_.checkpoint_io + (counting_fs_.counters() - io0);
  return true;
}

void Bench::RecordStore() {
  for (Rel rel : {Rel::kDepartments, Rel::kHeadcount, Rel::kAssignments,
                  Rel::kSalaries}) {
    auto r = db_->GetRelation(RelName(rel));
    if (!r.ok()) {
      Fail(std::string("relation ") + RelName(rel));
      continue;
    }
    tr_.sealed[RelName(rel)] =
        static_cast<double>((*r)->store()->sealed_partition_count());
    tr_.versions[RelName(rel)] =
        static_cast<double>((*r)->store()->version_count());
  }
}

std::optional<Rowset> Bench::Query(const std::string& text) {
  auto r = db_->Query(text);
  if (!r.ok()) {
    Fail(text + ": " + r.status().ToString());
    return std::nullopt;
  }
  return std::move(*r);
}

std::optional<Rowset> Bench::SnapshotQuery(const std::string& text) {
  auto snap = db_->BeginReadSnapshot();
  if (!snap.ok()) {
    Fail("pin: " + snap.status().ToString());
    return std::nullopt;
  }
  auto r = db_->QueryAtSnapshot(*snap, text);
  snap->Release();
  if (!r.ok()) {
    Fail(text + " (snapshot): " + r.status().ToString());
    return std::nullopt;
  }
  return std::move(*r);
}

// Runs one retrieve stage by stage through the tquel entry points, then
// drains each participant's BatchScan with the statement's pushed-down
// windows, timing every step.  The evaluator's answer is returned.
std::optional<Rowset> Bench::Staged(const std::string& text, bool snapshot) {
  namespace tq = temporadb::tquel;
  std::optional<temporadb::ReadSnapshot> snap;
  if (snapshot) {
    auto s = db_->BeginReadSnapshot();
    if (!s.ok()) {
      Fail("pin: " + s.status().ToString());
      return std::nullopt;
    }
    snap = std::move(*s);
  }
  const std::map<std::string, std::string> ranges =
      snap ? snap->ranges() : db_->ranges();
  Database* db = db_.get();
  const temporadb::ReadSnapshot* pin = snap ? &*snap : nullptr;
  auto get_relation = [db, pin](std::string_view name)
      -> temporadb::Result<temporadb::StoredRelation*> {
    if (pin == nullptr) return db->GetRelation(name);
    const temporadb::StoredRelation* rel = pin->relation(name);
    if (rel == nullptr) return temporadb::Status::NotFound(std::string(name));
    return const_cast<temporadb::StoredRelation*>(rel);
  };

  const auto t0 = Clock::now();
  auto parsed = tq::ParseOne(text);
  const double parse_us = UsSince(t0);
  if (!parsed.ok() || !std::holds_alternative<tq::RetrieveStmt>(*parsed)) {
    Fail("parse " + text);
    return std::nullopt;
  }
  tq::AnalyzerContext actx;
  actx.get_relation = get_relation;
  actx.ranges = &ranges;
  const auto t1 = Clock::now();
  auto bound = tq::AnalyzeRetrieve(std::get<tq::RetrieveStmt>(*parsed), actx);
  const double analyze_us = UsSince(t1);
  if (!bound.ok()) {
    Fail("analyze " + text + ": " + bound.status().ToString());
    return std::nullopt;
  }
  tq::EvalContext ectx;
  ectx.get_relation = get_relation;
  ectx.ranges = const_cast<std::map<std::string, std::string>*>(&ranges);
  ectx.txn_manager = db_->txn_manager();
  ectx.snapshot = pin;
  const auto t2 = Clock::now();
  auto rows = tq::EvaluateRetrieve(*bound, ectx);
  const double evaluate_us = UsSince(t2);
  if (!rows.ok()) {
    Fail("evaluate " + text + ": " + rows.status().ToString());
    return std::nullopt;
  }

  // The participants' scans, with the windows the evaluator pushes down.
  std::optional<Period> asof;
  if (bound->asof_at != nullptr) {
    auto at = bound->asof_at->Eval({});
    if (at.ok()) {
      asof = Period::At(at->begin());
      if (bound->asof_through != nullptr) {
        auto through = bound->asof_through->Eval({});
        if (through.ok()) asof = Period(at->begin(), through->begin().Next());
      }
    }
  }
  scan_stats_.Reset();
  double scan_us = 0;
  for (size_t i = 0; i < bound->participants.size(); ++i) {
    const temporadb::StoredRelation& rel = *bound->participants[i].relation;
    temporadb::ScanSpec spec;
    spec.asof = asof;
    if (bound->when != nullptr &&
        temporadb::SupportsValidTime(rel.temporal_class())) {
      spec.valid_during = bound->when->PushdownWindow(i, {}, 0);
    }
    if (pin != nullptr) spec.snapshot = pin->PinFor(rel.store());
    const auto t3 = Clock::now();
    temporadb::VersionBatchScan scan = rel.BatchScan(spec);
    temporadb::VersionBatch batch;
    size_t n = 0;
    while (scan.Next(&batch)) n += batch.size();
    scan_us += UsSince(t3);
    (void)n;
  }
  const double out = static_cast<double>(rows->size());
  const double considered = static_cast<double>(scan_stats_.considered());
  const double pruned =
      static_cast<double>(scan_stats_.pruned_tt() + scan_stats_.pruned_vt() +
                          scan_stats_.pruned_snapshot());
  tr_.parse_read.push_back(parse_us);
  tr_.analyze.push_back(analyze_us);
  tr_.evaluate.push_back(evaluate_us);
  tr_.scan.push_back(scan_us);
  tr_.join_loop.push_back(std::max(0.0, evaluate_us - scan_us));
  tr_.rows_out.push_back(out);
  // The ratios describe partitioned scans only: a relation with no sealed
  // partition yet reports none, and would pin both medians at 0.
  if (considered > 0) {
    tr_.scanned_per_out.push_back(
        static_cast<double>(scan_stats_.rows_scanned.load()) /
        std::max(1.0, out));
    tr_.prune_ratio.push_back(pruned / considered);
  }
  tr_.stage_sum.push_back(parse_us + analyze_us + evaluate_us);
  return std::move(*rows);
}

// Runs whole passes over `list` until the run length and the sample floor
// are met; the first pass warms up and is not timed.  Each query's row
// count must repeat on every pass.  With `snapshots`, every pass issues the
// list once through Query and once through a snapshot pin.  After every
// timed pass the database is checkpointed, closed and reopened, so those
// samples spread over the whole run like the query samples do.
bool Bench::TimedPasses(const fs::path& dir,
                        const std::vector<perfbench::Query>& list,
                        bool snapshots) {
  std::vector<int64_t> seen(list.size() * 2, -1);
  std::vector<std::string> labels;
  for (int path = 0; path < 2; ++path) {
    for (const perfbench::Query& q : list) {
      labels.push_back(std::string(QClassName(q.cls)) +
                       (path == 1 ? "/snapshot" : "/query"));
    }
  }
  CpuRotation cpus;
  const auto start = Clock::now();
  for (size_t pass = 0;; ++pass) {
    cpus.Next();
    const bool warm = pass == 0;
    for (int path = 0; path < (snapshots ? 2 : 1); ++path) {
      for (size_t i = 0; i < list.size(); ++i) {
        const std::string& text = list[i].text;
        std::optional<Rowset> rows;
        if (trace_ && !warm) {
          // Alternate which of the two goes first, so neither always runs
          // on caches the other warmed.
          std::optional<Rowset> again;
          double q_us = 0;
          const auto query = [&] {
            const auto t1 = Clock::now();
            again = path == 1 ? SnapshotQuery(text) : Query(text);
            q_us = UsSince(t1);
          };
          if (i % 2 == 1) query();
          rows = Staged(text, path == 1);
          if (i % 2 == 0) query();
          tr_.traced_us += tr_.stage_sum.back();
          tr_.traced_n += 1;
          tr_.query.push_back(q_us);
          tr_.untraced_us += q_us;
          tr_.untraced_n += 1;
          if (again && rows && again->size() != rows->size()) {
            Fail("staged and Query answers differ: " + text);
          }
        } else {
          const auto t0 = Clock::now();
          rows = path == 1 ? SnapshotQuery(text) : Query(text);
          const double us = UsSince(t0);
          if (!warm) {
            op_us_.push_back(us);
            class_us_[labels[path * list.size() + i]].push_back(us);
            KeepMin(&best_op_us_, path * list.size() + i, us);
            best_class_.resize(best_op_us_.size());
            best_class_[path * list.size() + i] = labels[path * list.size() + i];
          }
        }
        if (!warm) {
          ++attempted_;
          if (!rows) ++failed_;
        }
        if (!rows) continue;
        int64_t& s = seen[path * list.size() + i];
        const auto n = static_cast<int64_t>(rows->size());
        if (s >= 0 && s != n) Fail("row count changed between passes: " + text);
        s = n;
      }
    }
    if (warm) continue;
    if (!Maintain(dir, pass == 1)) return false;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= seconds_ && attempted_ >= cfg_.min_ops) break;
  }
  return true;
}

// One checkpoint, close and reopen, each timed.  After the first, every
// relation's content must read the same as before it.
bool Bench::Maintain(const fs::path& dir, bool first) {
  std::vector<std::vector<CRow>> before;
  const int64_t first_day = cfg_.spec.start_day;
  const int64_t last_day = corpus_.back().day;
  if (first) before = ReadContent(first_day, last_day);
  double us = 0;
  if (!Checkpoint(&us)) return false;
  checkpoint_s_.push_back(us / 1e6);
  KeepMin(&best_checkpoint_us_, 0, us);
  if (trace_) {
    if (tr_.checkpoint_first.empty()) tr_.checkpoint_first.push_back(us);
    tr_.checkpoint_last = {us};
    tr_.checkpoint_rounds += 1;
  }
  db_.reset();
  disk_bytes_.push_back(DirBytes(dir));
  if (!Reopen(dir, trace_, &us)) return false;
  reopen_s_.push_back(us / 1e6);
  if (first) CheckContent(before, first_day, last_day, "reopen");
  return true;
}

// Compares a seeded sample of `list` with the reference model, through
// Query and (with `snapshots`) through a snapshot pin; the two paths must
// also agree with each other.
void Bench::CheckQueries(const std::vector<perfbench::Query>& list,
                         bool snapshots) {
  Rng rng(seed_ ^ 0xC4EC4ULL);
  std::vector<size_t> idx(list.size());
  std::iota(idx.begin(), idx.end(), 0);
  rng.Shuffle(&idx);
  idx.resize(std::min(idx.size(), cfg_.check_sample));
  for (size_t i : idx) {
    const perfbench::Query& q = list[i];
    const std::vector<CRow> want = model_.Answer(q);
    auto got = Query(q.text);
    if (!got) continue;
    const std::vector<CRow> rows = ToRows(*got);
    std::string d = DiffRows(rows, want, CompareFor(q), WindowFor(q));
    if (!d.empty()) Fail("model disagrees on " + q.text + ": " + d);
    if (!snapshots) continue;
    auto at = SnapshotQuery(q.text);
    if (!at) continue;
    d = DiffRows(ToRows(*at), rows, CompareFor(q), WindowFor(q));
    if (!d.empty()) Fail("QueryAtSnapshot disagrees with Query on " + q.text + ": " + d);
  }
}

// `as of` the last commit must equal the current state.
void Bench::CheckProperties(int64_t last_day) {
  for (Rel rel : {Rel::kHeadcount, Rel::kSalaries}) {
    perfbench::Query now;
    now.rel = rel;
    now.text = RetrieveAll(rel);
    const std::string then = now.text + " as of " + DayLit(last_day);
    auto a = Query(now.text);
    auto b = Query(then);
    if (!a || !b) continue;
    const std::string d = DiffRows(ToRows(*b), ToRows(*a), CompareFor(now));
    if (!d.empty()) Fail("as of the last commit differs from now: " + then + ": " + d);
  }
}

std::vector<std::vector<CRow>> Bench::ReadContent(int64_t first, int64_t last) {
  std::vector<std::vector<CRow>> out;
  for (const perfbench::Query& q : ContentQueries(first, last)) {
    auto r = Query(q.text);
    out.push_back(r ? ToRows(*r) : std::vector<CRow>{});
  }
  return out;
}

// Every relation's content must equal `before` exactly and the model under
// the query's comparison.
void Bench::CheckContent(const std::vector<std::vector<CRow>>& before,
                         int64_t first, int64_t last, const char* what) {
  const std::vector<perfbench::Query> qs = ContentQueries(first, last);
  const std::vector<std::vector<CRow>> now = ReadContent(first, last);
  for (size_t i = 0; i < qs.size(); ++i) {
    std::string d = DiffRows(now[i], before[i], Compare::kExact);
    if (!d.empty()) Fail(std::string(what) + " changed " + qs[i].text + ": " + d);
    d = DiffRows(now[i], model_.Answer(qs[i]), CompareFor(qs[i]));
    if (!d.empty()) Fail("model disagrees on " + qs[i].text + ": " + d);
  }
}

// The comparison must catch a dropped row and a shifted period.
void Bench::SelfTest(int64_t first, int64_t last) {
  for (const perfbench::Query& q : ContentQueries(first, last)) {
    if (q.rel != Rel::kSalaries || q.asof != kNegInf) continue;
    auto r = Query(q.text);
    if (!r) return;
    std::vector<CRow> rows = ToRows(*r);
    std::map<std::string, int> freq;
    for (const CRow& row : rows) ++freq[row.values];
    size_t victim = rows.size();
    for (size_t i = 0; i < rows.size(); ++i) {
      if (freq[rows[i].values] == 1) {
        victim = i;
        break;
      }
    }
    if (victim == rows.size()) {
      Fail("self-test found no row to perturb");
      return;
    }
    std::vector<CRow> dropped = rows;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(victim));
    std::vector<CRow> shifted = rows;
    shifted[victim].vf += 1;
    if (shifted[victim].vt != kInf) shifted[victim].vt += 1;
    const bool caught_drop = !DiffRows(dropped, rows, CompareFor(q)).empty();
    const bool caught_shift = !DiffRows(shifted, rows, CompareFor(q)).empty();
    std::fprintf(stderr, "self-test: dropped row %s, shifted period %s\n",
                 caught_drop ? "flagged" : "MISSED",
                 caught_shift ? "flagged" : "MISSED");
    if (!caught_drop || !caught_shift) Fail("self-test: a perturbed answer passed");
    return;
  }
}

void Bench::TimePins() {
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    auto snap = db_->BeginReadSnapshot();
    if (!snap.ok()) {
      Fail("pin: " + snap.status().ToString());
      return;
    }
    snap->Release();
    tr_.pin.push_back(UsSince(t0));
  }
}

// Closes the database and opens it again from `dir`, timing the Open.
bool Bench::Reopen(const fs::path& dir, bool traced, double* us) {
  db_.reset();
  const IoCounters io0 = counting_fs_.counters();
  const auto t0 = Clock::now();
  const bool ok = Open(dir, traced);
  *us = UsSince(t0);
  if (traced) {
    tr_.recovery_io = tr_.recovery_io + (counting_fs_.counters() - io0);
    tr_.recovery_opens += 1;
    tr_.open.push_back(*us);
  }
  return ok;
}

// DDL plus corpus load into a fresh on-disk database at `dir`; the model
// replays the same ops afterwards (outside setup time) and must agree on
// every statement's affected count.
bool Bench::SetupCorpus(const fs::path& dir) {
  StreamGen gen(cfg_.spec, seed_);
  corpus_ = gen.Roster();
  const std::vector<Op> updates = gen.Updates(cfg_.corpus_updates);
  corpus_.insert(corpus_.end(), updates.begin(), updates.end());
  stream_ = gen.Updates(cfg_.stream);
  clock_.SetTime(Chronon(cfg_.spec.start_day));
  if (!Open(dir, trace_, /*ranges=*/false)) return false;
  for (const std::string& stmt : SchemaStatements()) {
    auto r = db_->Execute(stmt);
    if (!r.ok()) {
      Fail(stmt + ": " + r.status().ToString());
      return false;
    }
  }
  return Load(corpus_, &corpus_counts_);
}

void Bench::CheckCorpusCounts() {
  for (size_t i = 0; i < corpus_.size(); ++i) {
    const size_t want = model_.Apply(corpus_[i]);
    if (i < corpus_counts_.size() && corpus_counts_[i] != want) {
      Fail(RenderOp(corpus_[i]) + ": affected " +
           std::to_string(corpus_counts_[i]) + ", model " +
           std::to_string(want));
    }
  }
}

bool Bench::RunReads(bool joins) {
  const fs::path dir = root_ / "db";
  if (!SetupCorpus(dir)) return false;
  setup_s_ = UsSince(g_process_start) / 1e6;
  CheckCorpusCounts();
  RecordStore();
  std::fprintf(stderr, "salaries: %.0f versions, %.0f sealed partitions\n",
               tr_.versions["salaries"], tr_.sealed["salaries"]);
  if (trace_) TimePins();
  const int64_t first = cfg_.spec.start_day;
  const int64_t last = corpus_.back().day;
  const std::vector<perfbench::Query> list =
      joins ? JoinMix(cfg_.spec, seed_, cfg_.join_band, cfg_.queries)
            : ReadMix(cfg_.spec, seed_, first, last, cfg_.queries);
  if (!TimedPasses(dir, list, /*snapshots=*/!joins)) return false;
  CheckQueries(list, /*snapshots=*/!joins);
  CheckProperties(last);
  if (quick_) SelfTest(first, last);
  return true;
}

// payroll_durable: the checkpointed corpus is the base; every round copies
// it, commits the DML stream one statement per transaction (checkpointing
// every `checkpoint_every` statements and leaving a WAL tail of as many),
// closes, reopens and checks.  Rounds repeat the same statements from the
// same state, so every round must give the same answers.  In the traced
// run round 0 uses the plain filesystem and the rest the counting one; the
// overhead compares their statement times.
bool Bench::RunPayroll() {
  const fs::path base = root_ / "base";
  if (!SetupCorpus(base)) return false;
  double us = 0;
  if (!Checkpoint(&us)) return false;
  if (trace_) RecordStore();
  db_.reset();
  setup_s_ = UsSince(g_process_start) / 1e6;
  CheckCorpusCounts();
  // The traced figures describe the stream, not the load.
  Trace store_shape;
  store_shape.sealed = std::move(tr_.sealed);
  store_shape.versions = std::move(tr_.versions);
  tr_ = std::move(store_shape);

  std::vector<size_t> expected;
  for (const Op& op : stream_) expected.push_back(model_.Apply(op));
  const int64_t first = cfg_.spec.start_day;
  const int64_t last = stream_.back().day;
  const size_t every = stream_.size() / 4;
  // Mid-stream audits of round 0, reissued after the stream.
  std::vector<std::pair<perfbench::Query, std::vector<CRow>>> audits;

  CpuRotation cpus;
  const auto start = Clock::now();
  for (size_t round = 0;; ++round) {
    cpus.Next();
    // Round 0 warms up and is not counted.  The traced run alternates
    // traced (odd) and untraced (even) rounds after it.
    const bool warm = round == 0;
    const bool traced = trace_ && round % 2 == 1;
    const fs::path dir = root_ / ("round" + std::to_string(round));
    std::error_code ec;
    fs::copy(base, dir, fs::copy_options::recursive, ec);
    if (ec) {
      Fail("copy " + base.string() + ": " + ec.message());
      return false;
    }
    if (!Open(dir, traced)) return false;
    if (traced && round == 1) TimePins();
    std::vector<double> checkpoints;
    size_t next_checkpoint = every;
    for (size_t i = 0; i < stream_.size();) {
      const size_t end = DayEnd(stream_, i);
      std::vector<double> stmt_us;
      double commit_us = 0;
      if (!CommitDay(stream_, i, end, traced, &expected[i], nullptr, &stmt_us,
                     &commit_us)) {
        return false;
      }
      const double day_us = Sum(stmt_us) + commit_us;
      if (traced) {
        tr_.traced_us += day_us;
        tr_.traced_n += static_cast<double>(end - i);
      } else if (!warm) {
        for (size_t k = i; k < end; ++k) {
          op_us_.push_back(stmt_us[k - i]);
          class_us_[OpKindName(stream_[k])].push_back(stmt_us[k - i]);
          KeepMin(&best_op_us_, k, stmt_us[k - i]);
          best_class_.resize(best_op_us_.size());
          best_class_[k] = OpKindName(stream_[k]);
        }
        KeepMin(&best_commit_us_, i, commit_us);
        tr_.untraced_us += day_us;
        tr_.untraced_n += static_cast<double>(end - i);
      }
      const int64_t day = stream_[i].day;
      i = end;
      // Checkpoint at the first day boundary past every quarter of the
      // stream, but not near its end: the last quarter stays a WAL tail.
      if (i < next_checkpoint || i + every / 2 >= stream_.size()) continue;
      next_checkpoint += every;
      double ck = 0;
      if (!Checkpoint(&ck)) return false;
      checkpoints.push_back(ck);
      // Audit as of the day before this one: no later statement can
      // change that state.
      for (Rel rel : {Rel::kHeadcount, Rel::kSalaries}) {
        perfbench::Query q;
        q.rel = rel;
        q.asof = day - 1;
        q.text = RetrieveAll(rel) + " as of " + DayLit(q.asof);
        std::optional<Rowset> rows =
            traced ? Staged(q.text, false) : Query(q.text);
        if (traced) {
          const auto t0 = Clock::now();
          if (!Query(q.text)) continue;
          tr_.query.push_back(UsSince(t0));
        }
        if (rows && round == 0) audits.emplace_back(q, ToRows(*rows));
      }
    }
    if (traced) {
      tr_.checkpoint_first.push_back(checkpoints.front());
      tr_.checkpoint_last.push_back(checkpoints.back());
      tr_.checkpoint_rounds += 1;
    }
    if (!warm) {
      checkpoint_s_.push_back(Sum(checkpoints) / 1e6);
      for (size_t k = 0; k < checkpoints.size(); ++k) {
        KeepMin(&best_checkpoint_us_, k, checkpoints[k]);
      }
    }

    if (round == 0) {
      for (const auto& [q, mid] : audits) {
        auto now = Query(q.text);
        if (!now) continue;
        // The rows' transaction ends may have closed since; the state as
        // of the audited day may not change.
        std::string d = DiffRows(ToRows(*now), mid, CompareFor(q));
        if (!d.empty()) Fail("audit changed after later writes: " + q.text + ": " + d);
        d = DiffRows(mid, model_.Answer(q), CompareFor(q));
        if (!d.empty()) Fail("model disagrees on " + q.text + ": " + d);
      }
      CheckProperties(last);
      if (quick_) SelfTest(first, last);
    }
    const std::vector<std::vector<CRow>> before = ReadContent(first, last);
    db_.reset();
    if (!warm) disk_bytes_.push_back(DirBytes(dir));
    double open_us = 0;
    if (!Reopen(dir, traced, &open_us)) return false;
    if (!warm) reopen_s_.push_back(open_us / 1e6);
    CheckContent(before, first, last, "reopen");
    db_.reset();
    fs::remove_all(dir, ec);

    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= seconds_ && op_us_.size() >= cfg_.min_ops &&
        (!trace_ || round >= 2)) {
      break;
    }
  }
  return true;
}

int Bench::Run() {
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", root_.c_str(),
                 ec.message().c_str());
    return 2;
  }
  bool ok = false;
  if (workload_ == "payroll_durable") {
    ok = RunPayroll();
  } else {
    ok = RunReads(workload_ == "when_join");
  }
  if (!ok && failures_ == 0) Fail("workload aborted");
  PrintResult();
  return failures_ == 0 ? 0 : 1;
}

void Bench::PrintResult() {
  std::map<std::string, std::vector<double>> summary = class_us_;
  for (double s : checkpoint_s_) summary["(checkpoint)"].push_back(s * 1e6);
  for (double s : reopen_s_) summary["(reopen)"].push_back(s * 1e6);
  for (const auto& [name, v] : summary) {
    std::fprintf(stderr, "%-28s n=%-7zu p10=%-10.1f p50=%-10.1f p90=%-10.1f us\n",
                 name.c_str(), v.size(), Percentile(v, 10), Median(v),
                 Percentile(v, 90));
  }
  std::map<std::string, std::pair<size_t, double>> best;
  for (size_t i = 0; i < best_op_us_.size(); ++i) {
    if (!std::isfinite(best_op_us_[i])) continue;
    best[best_class_[i]].first += 1;
    best[best_class_[i]].second += best_op_us_[i];
  }
  for (const auto& [name, nsum] : best) {
    std::fprintf(stderr, "%-28s fastest of each: n=%-5zu sum=%.1f us\n",
                 name.c_str(), nsum.first, nsum.second);
  }
  std::vector<std::tuple<std::string, double, std::string>> m;
  if (!trace_) {
    // On a shared host, other tenants slow the CPU and the disk for
    // seconds at a time, in a share that differs from run to run, so any
    // mean, median or tail of raw samples moves with that share.  Every
    // operation is repeated on each pass or round from the same state, so
    // its fastest time is its cost without interference; the metrics are
    // taken over those per-operation minima (one list or stream, each
    // operation once): throughput is operations over the sum of their
    // times, commits included, and p95_us the slowest twentieth of them.
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    const std::vector<double> op = Taken(best_op_us_);
    const double busy_s = (Sum(op) + Sum(Taken(best_commit_us_))) / 1e6;
    m = {
        {"setup_s", setup_s_, "s"},
        {"p95_us", Percentile(op, 95), "us"},
        {"ops_per_s", busy_s > 0 ? static_cast<double>(op.size()) / busy_s : 0,
         "1/s"},
        {"checkpoint_s", Sum(Taken(best_checkpoint_us_)) / 1e6, "s"},
        {"reopen_s", Percentile(reopen_s_, 0), "s"},
        {"disk_bytes", Median(disk_bytes_), "bytes"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"},
    };
  } else {
    const double stmts = std::max(1.0, tr_.dml_stmts);
    const double rounds = std::max(1.0, tr_.checkpoint_rounds);
    const double opens = std::max(1.0, tr_.recovery_opens);
    m = {
        {"tquel.parse_us.read", Median(tr_.parse_read), "us"},
        {"tquel.parse_us.dml", Median(tr_.parse_dml), "us"},
        {"tquel.analyze_us", Median(tr_.analyze), "us"},
        {"tquel.evaluate_us", Median(tr_.evaluate), "us"},
        {"tquel.join_loop_us", Median(tr_.join_loop), "us"},
        {"tquel.rows_out", Median(tr_.rows_out), "rows"},
        {"temporal.scan_us", Median(tr_.scan), "us"},
        {"temporal.rows_scanned_per_row_out", Median(tr_.scanned_per_out),
         "ratio"},
        {"temporal.prune_ratio", Median(tr_.prune_ratio), "ratio"},
    };
    for (const char* rel : {"departments", "headcount", "assignments",
                            "salaries"}) {
      m.emplace_back(std::string("temporal.sealed_partitions.") + rel,
                     tr_.sealed[rel], "count");
    }
    for (const char* rel : {"departments", "headcount", "assignments",
                            "salaries"}) {
      m.emplace_back(std::string("temporal.versions.") + rel,
                     tr_.versions[rel], "count");
    }
    m.emplace_back("core.snapshot_pin_us", Median(tr_.pin), "us");
    for (const char* kind :
         {"append", "replace_temporal", "delete_temporal",
          "replace_historical", "delete_historical", "replace_rollback",
          "delete_rollback", "replace_static"}) {
      m.emplace_back(std::string("core.execute_us.") + kind,
                     Median(tr_.execute[kind]), "us");
    }
    const std::vector<std::tuple<std::string, double, std::string>> rest = {
        {"core.checkpoint_first_us", Median(tr_.checkpoint_first), "us"},
        {"core.checkpoint_last_us", Median(tr_.checkpoint_last), "us"},
        {"core.open_us", Median(tr_.open), "us"},
        {"storage.syncs_per_stmt", tr_.dml_io.syncs / stmts, "count"},
        {"storage.sync_us_p50", Median(tr_.dml_sync_us), "us"},
        {"storage.sync_us_total", tr_.dml_io.sync_us, "us"},
        {"storage.wal_bytes_per_stmt", tr_.dml_io.bytes_written / stmts,
         "bytes"},
        {"storage.checkpoint_bytes_written",
         tr_.checkpoint_io.bytes_written / rounds, "bytes"},
        {"storage.checkpoint_syncs", tr_.checkpoint_io.syncs / rounds,
         "count"},
        {"storage.checkpoint_write_us",
         (tr_.checkpoint_io.write_us + tr_.checkpoint_io.sync_us) / rounds,
         "us"},
        {"storage.recovery_bytes_read", tr_.recovery_io.bytes_read / opens,
         "bytes"},
        {"storage.recovery_read_us", tr_.recovery_io.read_us / opens, "us"},
        {"trace.stage_sum_us", Median(tr_.stage_sum), "us"},
        {"trace.query_us", Median(tr_.query), "us"},
        {"trace.overhead_pct",
         tr_.untraced_us > 0 && tr_.traced_n > 0
             ? 100.0 * ((tr_.traced_us / tr_.traced_n) /
                            (tr_.untraced_us / tr_.untraced_n) -
                        1)
             : 0,
         "%"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
  }
  std::string out = "{\"correct\": ";
  out += failures_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    const auto& [name, value, unit] = m[i];
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", std::isfinite(value) ? value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" + unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  const auto cfg = perfbench::MakeConfig(workload, quick);
  if (!cfg.has_value() || seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<bitemporal_reads|when_join|payroll_durable> --seed <n> "
                 "--seconds <s> --trace <0|1> [--quick]\n");
    return 2;
  }
  perfbench::Bench bench(workload, seed, seconds, trace == 1, quick, *cfg);
  return bench.Run();
}
