#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Zipf::Zipf(uint64_t n, double theta) : cdf_(n) {
  double sum = 0;
  for (uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

uint64_t Zipf::At(double u) const {
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<uint64_t>(it - cdf_.begin());
}

const char* RelName(Rel rel) {
  switch (rel) {
    case Rel::kDepartments:
      return "departments";
    case Rel::kHeadcount:
      return "headcount";
    case Rel::kAssignments:
      return "assignments";
    case Rel::kSalaries:
      return "salaries";
  }
  return "?";
}

const char* OpKindName(const Op& op) {
  if (op.kind == Kind::kAppend) return "append";
  const bool rep = op.kind == Kind::kReplace;
  switch (op.rel) {
    case Rel::kDepartments:
      return rep ? "replace_static" : "delete_static";
    case Rel::kHeadcount:
      return rep ? "replace_rollback" : "delete_rollback";
    case Rel::kAssignments:
      return rep ? "replace_historical" : "delete_historical";
    case Rel::kSalaries:
      return rep ? "replace_temporal" : "delete_temporal";
  }
  return "?";
}

std::string DayLit(int64_t day) {
  if (day == kInf) return "\"inf\"";
  // Civil date from days since 1970-01-01 (proleptic Gregorian).
  const int64_t z = day + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const int64_t doe = z - era * 146097;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  const int64_t d = doy - (153 * mp + 2) / 5 + 1;
  const int64_t m = mp < 10 ? mp + 3 : mp - 9;
  const int64_t y = yoe + era * 400 + (m <= 2 ? 1 : 0);
  char buf[80];
  std::snprintf(buf, sizeof(buf), "\"%04lld-%02lld-%02lld\"",
                static_cast<long long>(y), static_cast<long long>(m),
                static_cast<long long>(d));
  return buf;
}

namespace {

std::string Name(char prefix, int64_t i) {
  return std::string("\"") + prefix + std::to_string(i) + "\"";
}

std::string Valid(const Op& op) {
  return " valid from " + DayLit(op.vf) + " to " + DayLit(op.vt);
}

}  // namespace

std::string RenderOp(const Op& op) {
  const std::string k = std::to_string(op.key);
  const std::string v = std::to_string(op.val);
  switch (op.rel) {
    case Rel::kDepartments:
      if (op.kind == Kind::kAppend) {
        return "append to departments (dept = " + Name('d', op.key) +
               ", head = " + Name('h', op.val) + ")";
      }
      if (op.kind == Kind::kReplace) {
        return "replace d (head = " + Name('h', op.val) +
               ") where d.dept = " + Name('d', op.key);
      }
      return "delete d where d.dept = " + Name('d', op.key);
    case Rel::kHeadcount:
      if (op.kind == Kind::kAppend) {
        return "append to headcount (dept = " + Name('d', op.key) +
               ", n = " + v + ")";
      }
      if (op.kind == Kind::kReplace) {
        return "replace hc (n = " + v + ") where hc.dept = " +
               Name('d', op.key);
      }
      return "delete hc where hc.dept = " + Name('d', op.key);
    case Rel::kAssignments:
      if (op.kind == Kind::kAppend) {
        return "append to assignments (emp = " + k + ", dept = " +
               Name('d', op.val) + ")" + Valid(op);
      }
      if (op.kind == Kind::kReplace) {
        return "replace a (dept = " + Name('d', op.val) + ")" + Valid(op) +
               " where a.emp = " + k;
      }
      return "delete a" + Valid(op) + " where a.emp = " + k;
    case Rel::kSalaries:
      if (op.kind == Kind::kAppend) {
        return "append to salaries (emp = " + k + ", amount = " + v + ")" +
               Valid(op);
      }
      if (op.kind == Kind::kReplace) {
        return "replace s (amount = " + v + ")" + Valid(op) +
               " where s.emp = " + k;
      }
      return "delete s" + Valid(op) + " where s.emp = " + k;
  }
  return "";
}

std::vector<std::string> SchemaStatements() {
  return {
      "create static relation departments (dept = string, head = string)",
      "create rollback relation headcount (dept = string, n = int)",
      "create historical relation assignments (emp = int, dept = string)",
      "create temporal relation salaries (emp = int, amount = int)",
      "create index on departments (dept)",
      "create index on headcount (dept)",
      "create index on assignments (emp)",
      "create index on salaries (emp)",
      "range of d is departments",
      "range of hc is headcount",
      "range of a is assignments",
      "range of s is salaries",
  };
}

StreamGen::StreamGen(const CorpusSpec& spec, uint64_t seed)
    : spec_(spec),
      rng_(seed),
      zipf_(spec.employees, spec.zipf_theta),
      day_(spec.start_day) {}

// Stamps `op` with a transaction day: a new day starts when today's batch
// is full or already touched the same (relation, key).
Op StreamGen::Push(Op op) {
  const std::pair<Rel, int64_t> target{op.rel, op.key};
  if (today_.size() >= spec_.stmts_per_day ||
      std::find(today_.begin(), today_.end(), target) != today_.end()) {
    ++day_;
    today_.clear();
  }
  today_.push_back(target);
  op.day = day_;
  return op;
}

std::vector<Op> StreamGen::Roster() {
  std::vector<Op> ops;
  for (uint64_t d = 0; d < spec_.departments; ++d) {
    Op op;
    op.rel = Rel::kDepartments;
    op.key = static_cast<int64_t>(d);
    op.val = static_cast<int64_t>(rng_.Uniform(1000));
    ops.push_back(Push(op));
    op.rel = Rel::kHeadcount;
    op.val = static_cast<int64_t>(spec_.employees / spec_.departments);
    ops.push_back(Push(op));
  }
  for (uint64_t e = 0; e < spec_.employees; ++e) {
    Op op;
    op.rel = Rel::kSalaries;
    op.key = static_cast<int64_t>(e);
    op.val = 30000 + static_cast<int64_t>(rng_.Uniform(120000));
    op = Push(op);
    op.vf = op.day;
    ops.push_back(op);
    op.rel = Rel::kAssignments;
    op.val = static_cast<int64_t>(e % spec_.departments);
    ops.push_back(Push(op));
  }
  return ops;
}

// One block of 100 updates: the kinds below in these counts, shuffled.
//   salaries     55: 10 retroactive corrections, 2 terminations, 2
//                    carve-outs, 2 open and 5 fixed-term (re-)hires, 34 raises
//   assignments  25: 9 backdated transfers, 1 ended and 1 carved-out
//                    assignment, 3 secondary assignments, 11 transfers
//   headcount    12: 10 replaces, and a reorganisation: one department's
//                    row deleted, then re-entered (two statements)
//   departments   8: head replaced
enum class StreamGen::Sub {
  kSalRetro, kSalTerminate, kSalCarve, kSalHireOpen, kSalHireFixed, kSalRaise,
  kAsgBackdate, kAsgEnd, kAsgCarve, kAsgSecondary, kAsgTransfer,
  kHcReorg, kHcReplace, kDeptReplace,
};

std::vector<Op> StreamGen::Updates(size_t n) {
  static const std::pair<Sub, int> kBlock[] = {
      {Sub::kSalRetro, 10},    {Sub::kSalTerminate, 2}, {Sub::kSalCarve, 2},
      {Sub::kSalHireOpen, 2},  {Sub::kSalHireFixed, 5}, {Sub::kSalRaise, 34},
      {Sub::kAsgBackdate, 9},  {Sub::kAsgEnd, 1},       {Sub::kAsgCarve, 1},
      {Sub::kAsgSecondary, 3}, {Sub::kAsgTransfer, 11}, {Sub::kHcReorg, 1},
      {Sub::kHcReplace, 10},   {Sub::kDeptReplace, 8},
  };
  constexpr size_t kEmployeeOps = 80;  // Salary plus assignment slots.
  std::vector<Op> ops;
  while (ops.size() < n) {
    std::vector<Sub> block;
    for (const auto& [sub, count] : kBlock) block.insert(block.end(), count, sub);
    rng_.Shuffle(&block);
    const std::vector<double> emp_u = rng_.Strata(kEmployeeOps);
    size_t next_emp = 0;
    for (Sub sub : block) {
      const bool per_employee = sub < Sub::kHcReorg;
      const int64_t emp =
          per_employee ? static_cast<int64_t>(zipf_.At(emp_u[next_emp++])) : 0;
      ops.push_back(Make(sub, emp));
      if (sub == Sub::kHcReorg) {
        // Every department keeps exactly one current headcount row, so no
        // headcount statement ever matches nothing.
        Op again = ops.back();
        again.kind = Kind::kAppend;
        again.val = static_cast<int64_t>(rng_.Uniform(500));
        ops.push_back(Push(again));
      }
    }
  }
  return ops;
}

// Builds one update; valid windows are placed relative to its day.
Op StreamGen::Make(Sub sub, int64_t emp) {
  Op op;
  auto days = [this](uint64_t n) { return static_cast<int64_t>(rng_.Uniform(n)); };
  switch (sub) {
    case Sub::kSalRetro:
    case Sub::kSalTerminate:
    case Sub::kSalCarve:
    case Sub::kSalHireOpen:
    case Sub::kSalHireFixed:
    case Sub::kSalRaise:
      op.rel = Rel::kSalaries;
      op.key = emp;
      op.val = 30000 + days(120000);
      break;
    case Sub::kAsgBackdate:
    case Sub::kAsgEnd:
    case Sub::kAsgCarve:
    case Sub::kAsgSecondary:
    case Sub::kAsgTransfer:
      op.rel = Rel::kAssignments;
      op.key = emp;
      op.val = days(spec_.departments);
      break;
    case Sub::kHcReorg:
    case Sub::kHcReplace:
      op.rel = Rel::kHeadcount;
      op.key = days(spec_.departments);
      op.val = days(500);
      break;
    case Sub::kDeptReplace:
      op.rel = Rel::kDepartments;
      op.key = days(spec_.departments);
      op.val = days(1000);
      break;
  }
  op = Push(op);
  const int64_t d = op.day;
  switch (sub) {
    case Sub::kSalRetro:  // Re-states a window months to years back.
      op.kind = Kind::kReplace;
      op.vf = d - 180 - days(900);
      op.vt = op.vf + 30 + days(300);
      break;
    case Sub::kSalTerminate:
      op.kind = Kind::kDelete;
      op.vf = d - days(365);
      break;
    case Sub::kSalCarve:
      op.kind = Kind::kDelete;
      op.vf = d - days(365);
      op.vt = op.vf + 1 + days(120);
      break;
    case Sub::kSalHireOpen:
      op.vf = d - days(10);
      break;
    case Sub::kSalHireFixed:
      op.vf = d - days(10);
      op.vt = op.vf + 1 + days(400);
      break;
    case Sub::kSalRaise:
      op.kind = Kind::kReplace;
      op.vf = d - days(10);
      break;
    case Sub::kAsgBackdate:
      op.kind = Kind::kReplace;
      op.vf = d - 90 - days(540);
      op.vt = op.vf + 30 + days(180);
      break;
    case Sub::kAsgEnd:
      op.kind = Kind::kDelete;
      op.vf = d - days(180);
      break;
    case Sub::kAsgCarve:
      op.kind = Kind::kDelete;
      op.vf = d - days(180);
      op.vt = op.vf + 1 + days(90);
      break;
    case Sub::kAsgSecondary:
      op.vf = d - days(10);
      op.vt = op.vf + 1 + days(240);
      break;
    case Sub::kAsgTransfer:
      op.kind = Kind::kReplace;
      op.vf = d - days(5);
      break;
    case Sub::kHcReorg:
      op.kind = Kind::kDelete;
      break;
    case Sub::kHcReplace:
    case Sub::kDeptReplace:
      op.kind = Kind::kReplace;
      break;
  }
  return op;
}

const char* QClassName(QClass c) {
  switch (c) {
    case QClass::kAudit:
      return "audit";
    case QClass::kStab:
      return "stab";
    case QClass::kLookup:
      return "lookup";
    case QClass::kJoin:
      return "join";
  }
  return "?";
}

std::string RetrieveAll(Rel rel) {
  switch (rel) {
    case Rel::kDepartments:
      return "retrieve (d.dept, d.head)";
    case Rel::kHeadcount:
      return "retrieve (hc.dept, hc.n)";
    case Rel::kAssignments:
      return "retrieve (a.emp, a.dept)";
    case Rel::kSalaries:
      return "retrieve (s.emp, s.amount)";
  }
  return "";
}

namespace {

const char* Var(Rel rel) {
  switch (rel) {
    case Rel::kDepartments:
      return "d";
    case Rel::kHeadcount:
      return "hc";
    case Rel::kAssignments:
      return "a";
    case Rel::kSalaries:
      return "s";
  }
  return "";
}

// Renders a single-relation query from its structured fields.
void RenderSingle(Query* q) {
  std::string t = RetrieveAll(q->rel);
  const std::string v = Var(q->rel);
  if (q->key >= 0) {
    t += " where " + v + ".emp = " + std::to_string(q->key);
  } else if (q->amount_lt >= 0) {
    t += " where s.amount < " + std::to_string(q->amount_lt);
  }
  if (q->stab != kNegInf) t += " when " + v + " overlap " + DayLit(q->stab);
  if (q->asof != kNegInf) {
    t += " as of " + DayLit(q->asof);
    if (q->asof_to != kNegInf) t += " through " + DayLit(q->asof_to);
  }
  q->text = std::move(t);
}

int64_t DayAt(double u, int64_t first, int64_t last) {
  return first + static_cast<int64_t>(u * static_cast<double>(last - first + 1));
}

}  // namespace

std::vector<Query> ReadMix(const CorpusSpec& spec, uint64_t seed,
                           int64_t first_day, int64_t last_day, size_t n) {
  Rng rng(seed ^ 0x5EAD5EADULL);
  const Zipf zipf(spec.employees, spec.zipf_theta);
  constexpr size_t kSlots = 12;
  const size_t groups = (n + kSlots - 1) / kSlots;
  // Per slot, stratified draws for its day, second day and key.
  std::vector<std::vector<double>> u1, u2, u3;
  for (size_t slot = 0; slot < kSlots; ++slot) {
    u1.push_back(rng.Strata(groups));
    u2.push_back(rng.Strata(groups));
    u3.push_back(rng.Strata(groups));
  }
  std::vector<Query> out;
  for (size_t g = 0; g < groups; ++g) {
    for (size_t slot = 0; slot < kSlots && out.size() < n; ++slot) {
      const int64_t day1 = DayAt(u1[slot][g], first_day, last_day);
      const int64_t day2 = DayAt(u2[slot][g], first_day, last_day);
      Query q;
      switch (slot) {
        case 0:  // Audit of the rollback relation.
          q.cls = QClass::kAudit;
          q.rel = Rel::kHeadcount;
          q.asof = day1;
          break;
        case 1:  // Audit of the whole payroll.
          q.cls = QClass::kAudit;
          q.asof = day1;
          break;
        case 2:  // Audit of the salaries under a threshold.
          q.cls = QClass::kAudit;
          q.asof = day1;
          q.amount_lt = 40000 + static_cast<int64_t>(u3[slot][g] * 60000);
          break;
        case 3:  // Current-state valid timeslice.
          q.cls = QClass::kStab;
          q.stab = day1;
          break;
        case 4:  // Historical timeslice.
          q.cls = QClass::kStab;
          q.rel = Rel::kAssignments;
          q.stab = day1;
          break;
        case 5:  // Bitemporal timeslice.
          q.cls = QClass::kStab;
          q.stab = day1;
          q.asof = day2;
          break;
        default:  // Point lookups: 4 Zipf-hot, 2 uniform employees.
          q.cls = QClass::kLookup;
          q.key = static_cast<int64_t>(
              slot < 10 ? zipf.At(u3[slot][g])
                        : static_cast<uint64_t>(u3[slot][g] * spec.employees));
          q.stab = day1;
          q.asof = day2;
          break;
      }
      RenderSingle(&q);
      out.push_back(std::move(q));
    }
  }
  return out;
}

std::vector<Query> JoinMix(const CorpusSpec& spec, uint64_t seed,
                           uint64_t band, size_t n) {
  Rng rng(seed ^ 0x701701ULL);
  const std::vector<double> u = rng.Strata(n);
  std::vector<Query> out;
  for (size_t i = 0; i < n; ++i) {
    Query q;
    q.cls = QClass::kJoin;
    q.band_lo = static_cast<int64_t>(
        u[i] * static_cast<double>(spec.employees - band + 1));
    q.band_hi = q.band_lo + static_cast<int64_t>(band);
    q.text =
        "retrieve (s.emp, s.amount, a.dept) where s.emp = a.emp and s.emp >= " +
        std::to_string(q.band_lo) + " and s.emp < " +
        std::to_string(q.band_hi) + " when s overlap a";
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<Query> ContentQueries(int64_t first_day, int64_t last_day) {
  std::vector<Query> out;
  for (Rel rel : {Rel::kDepartments, Rel::kHeadcount, Rel::kAssignments,
                  Rel::kSalaries}) {
    Query q;
    q.rel = rel;
    RenderSingle(&q);
    out.push_back(q);
    if (rel == Rel::kHeadcount || rel == Rel::kSalaries) {
      // Every state ever recorded.
      q.asof = first_day;
      q.asof_to = last_day;
      RenderSingle(&q);
      out.push_back(q);
    }
  }
  return out;
}

}  // namespace perfbench
