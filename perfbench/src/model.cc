#include "model.h"

#include <algorithm>

namespace perfbench {

namespace {

bool HasValid(Rel rel) {
  return rel == Rel::kAssignments || rel == Rel::kSalaries;
}
bool HasTxn(Rel rel) { return rel == Rel::kHeadcount || rel == Rel::kSalaries; }

// Half-open periods; an empty period overlaps nothing.
bool Overlaps(int64_t b1, int64_t e1, int64_t b2, int64_t e2) {
  return b1 < e1 && b2 < e2 && b1 < e2 && b2 < e1;
}

std::string Values(Rel rel, int64_t key, int64_t val) {
  const std::string k = std::to_string(key);
  const std::string v = std::to_string(val);
  switch (rel) {
    case Rel::kDepartments:
      return "d" + k + "|h" + v;
    case Rel::kHeadcount:
      return "d" + k + "|" + v;
    case Rel::kAssignments:
      return k + "|d" + v;
    case Rel::kSalaries:
      return k + "|" + v;
  }
  return "";
}

std::string Describe(const CRow& r) {
  auto t = [](int64_t d) {
    return d == kInf ? std::string("inf")
           : d == kNegInf ? std::string("-inf")
                          : std::to_string(d);
  };
  return "(" + r.values + " valid [" + t(r.vf) + "," + t(r.vt) + ") txn [" +
         t(r.ts) + "," + t(r.te) + "))";
}

using Coalesced = std::map<std::string, std::vector<std::pair<int64_t, int64_t>>>;

Coalesced Coalesce(const std::vector<CRow>& rows,
                   std::optional<std::pair<int64_t, int64_t>> window) {
  Coalesced out;
  for (const CRow& r : rows) {
    int64_t b = r.vf, e = r.vt;
    if (window.has_value()) {
      b = std::max(b, window->first);
      e = std::min(e, window->second);
    }
    if (b >= e) continue;
    out[r.values].emplace_back(b, e);
  }
  for (auto& [values, periods] : out) {
    std::sort(periods.begin(), periods.end());
    std::vector<std::pair<int64_t, int64_t>> merged;
    for (const auto& p : periods) {
      if (!merged.empty() && p.first <= merged.back().second) {
        merged.back().second = std::max(merged.back().second, p.second);
      } else {
        merged.push_back(p);
      }
    }
    periods = std::move(merged);
  }
  return out;
}

bool ExactLess(const CRow& a, const CRow& b) {
  return std::tie(a.values, a.vf, a.vt, a.ts, a.te) <
         std::tie(b.values, b.vf, b.vt, b.ts, b.te);
}

}  // namespace

std::string DiffRows(std::vector<CRow> got, std::vector<CRow> want,
                     Compare mode,
                     std::optional<std::pair<int64_t, int64_t>> window) {
  if (mode == Compare::kCoalesced) {
    const Coalesced g = Coalesce(got, window);
    const Coalesced w = Coalesce(want, window);
    if (g == w) return "";
    for (const auto& [values, periods] : w) {
      auto it = g.find(values);
      if (it == g.end()) return "missing values " + values;
      if (it->second != periods) return "different valid time for " + values;
    }
    for (const auto& [values, periods] : g) {
      if (!w.contains(values)) return "unexpected values " + values;
    }
    return "coalesced answers differ";
  }
  if (mode == Compare::kBag) {
    for (std::vector<CRow>* rows : {&got, &want}) {
      for (CRow& r : *rows) r = CRow{r.values};
    }
  }
  std::sort(got.begin(), got.end(), ExactLess);
  std::sort(want.begin(), want.end(), ExactLess);
  if (got.size() != want.size()) {
    return "row count " + std::to_string(got.size()) + ", expected " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (ExactLess(got[i], want[i]) || ExactLess(want[i], got[i])) {
      return "row " + Describe(got[i]) + ", expected " + Describe(want[i]);
    }
  }
  return "";
}

Compare CompareFor(const Query& q) {
  if (q.cls == QClass::kJoin) return Compare::kCoalesced;
  return HasValid(q.rel) ? Compare::kCoalesced : Compare::kBag;
}

std::optional<std::pair<int64_t, int64_t>> WindowFor(const Query& q) {
  if (q.stab == kNegInf) return std::nullopt;
  return std::make_pair(q.stab, q.stab + 1);
}

size_t Model::Apply(const Op& op) {
  std::vector<Version>& rows = rels_[static_cast<int>(op.rel)][op.key];
  const int64_t now = op.day;
  const bool valid = HasValid(op.rel);
  const bool txn = HasTxn(op.rel);
  if (op.kind == Kind::kAppend) {
    rows.push_back(Version{op.key, op.val, valid ? op.vf : kNegInf,
                           valid ? op.vt : kInf, txn ? now : kNegInf, kInf});
    return 1;
  }
  const bool replace = op.kind == Kind::kReplace;

  if (txn) {
    // Append-only kinds: victims are the current versions that match; each
    // is closed now, and what remains valid outside the window (plus, for
    // replace, the corrected fact inside it) is re-entered now.
    std::vector<size_t> victims;
    for (size_t i = 0; i < rows.size(); ++i) {
      const Version& v = rows[i];
      if (v.te != kInf) continue;
      if (valid && !Overlaps(v.vf, v.vt, op.vf, op.vt)) continue;
      victims.push_back(i);
    }
    for (size_t i : victims) {
      const Version old = rows[i];
      rows[i].te = now;
      if (valid) {
        const int64_t left_end = std::min(old.vt, op.vf);
        const int64_t right_begin = std::max(old.vf, op.vt);
        if (old.vf < left_end) {
          rows.push_back(Version{old.key, old.val, old.vf, left_end, now, kInf});
        }
        if (right_begin < old.vt) {
          rows.push_back(
              Version{old.key, old.val, right_begin, old.vt, now, kInf});
        }
      }
      if (replace) {
        rows.push_back(Version{old.key, op.val,
                               valid ? std::max(old.vf, op.vf) : old.vf,
                               valid ? std::min(old.vt, op.vt) : old.vt, now,
                               kInf});
      }
    }
    return victims.size();
  }

  if (!valid) {
    // Static: destructive, in place.
    size_t affected = 0;
    for (size_t i = 0; i < rows.size();) {
      ++affected;
      if (replace) {
        rows[i++].val = op.val;
      } else {
        rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    return affected;
  }

  // Historical: correction in place.  Replace records the new value over
  // (old validity ∩ window) after deleting the window from every matching
  // fact; delete keeps only the remnants outside the window.
  std::vector<Version> inserts;
  std::vector<Version> kept;
  size_t matched = 0;
  for (const Version& v : rows) {
    if (!Overlaps(v.vf, v.vt, op.vf, op.vt)) {
      kept.push_back(v);
      continue;
    }
    ++matched;
    if (v.vf < std::min(v.vt, op.vf)) {
      kept.push_back(Version{v.key, v.val, v.vf, std::min(v.vt, op.vf), v.ts,
                             v.te});
    }
    if (std::max(v.vf, op.vt) < v.vt) {
      kept.push_back(Version{v.key, v.val, std::max(v.vf, op.vt), v.vt, v.ts,
                             v.te});
    }
    if (replace) {
      inserts.push_back(Version{v.key, op.val, std::max(v.vf, op.vf),
                                std::min(v.vt, op.vt), v.ts, v.te});
    }
  }
  if (matched == 0) return 0;
  kept.insert(kept.end(), inserts.begin(), inserts.end());
  rows = std::move(kept);
  return matched;
}

std::vector<CRow> Model::Answer(const Query& q) const {
  std::vector<CRow> out;
  auto visible = [&q](Rel rel, const Version& v) {
    if (!HasTxn(rel)) return true;
    if (q.asof == kNegInf) return v.te == kInf;
    const int64_t end = (q.asof_to == kNegInf ? q.asof : q.asof_to) + 1;
    return Overlaps(v.ts, v.te, q.asof, end);
  };
  if (q.cls == QClass::kJoin) {
    const auto& sal = rels_[static_cast<int>(Rel::kSalaries)];
    const auto& asg = rels_[static_cast<int>(Rel::kAssignments)];
    for (auto it = sal.lower_bound(q.band_lo);
         it != sal.end() && it->first < q.band_hi; ++it) {
      auto match = asg.find(it->first);
      if (match == asg.end()) continue;
      for (const Version& s : it->second) {
        if (s.te != kInf) continue;
        for (const Version& a : match->second) {
          if (!Overlaps(s.vf, s.vt, a.vf, a.vt)) continue;
        out.push_back(CRow{std::to_string(s.key) + "|" + std::to_string(s.val) +
                               "|d" + std::to_string(a.val),
                             std::max(s.vf, a.vf), std::min(s.vt, a.vt)});
        }
      }
    }
    return out;
  }
  for (const auto& [key, versions] : rels_[static_cast<int>(q.rel)]) {
    if (q.key >= 0 && key != q.key) continue;
    for (const Version& v : versions) {
    if (!visible(q.rel, v)) continue;
    if (q.amount_lt >= 0 && !(v.val < q.amount_lt)) continue;
    if (q.stab != kNegInf && !Overlaps(v.vf, v.vt, q.stab, q.stab + 1)) {
      continue;
    }
    CRow r{Values(q.rel, v.key, v.val)};
    if (HasValid(q.rel)) {
      r.vf = v.vf;
      r.vt = v.vt;
    }
    out.push_back(std::move(r));
    }
  }
  return out;
}

}  // namespace perfbench
