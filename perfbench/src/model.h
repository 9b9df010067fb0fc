// The reference model: a naive list of bitemporal versions per relation,
// updated by the paper's append/replace/delete rules and queried by brute
// force.  Like gen.h it includes no engine code.
#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gen.h"

namespace perfbench {

/// One result row in engine-neutral form: attribute values joined by '|',
/// and the periods [vf, vt) and [ts, te) (all-time when the result class
/// lacks the dimension).
struct CRow {
  std::string values;
  int64_t vf = kNegInf, vt = kInf;
  int64_t ts = kNegInf, te = kInf;
};

/// How two answers are compared.
enum class Compare {
  kBag,        ///< Multiset of values (results without valid time).
  kCoalesced,  ///< Per distinct values, the union of valid periods.
  kExact,      ///< Multiset of values with both periods.
};

/// Empty when `got` and `want` agree under `mode`; otherwise a short
/// description of the first difference.  With a `window`, valid periods are
/// clipped to [window->first, window->second) before coalescing, so a stab
/// compares what holds inside the slice, however the versions are cut.
std::string DiffRows(std::vector<CRow> got, std::vector<CRow> want,
                     Compare mode,
                     std::optional<std::pair<int64_t, int64_t>> window = {});

/// The comparison a query's answer is checked under.
Compare CompareFor(const Query& q);
std::optional<std::pair<int64_t, int64_t>> WindowFor(const Query& q);

class Model {
 public:
  /// Applies one statement; returns the number of tuples it affected.
  size_t Apply(const Op& op);
  /// Answers a query of gen.h's shapes.
  std::vector<CRow> Answer(const Query& q) const;

 private:
  struct Version {
    int64_t key, val;
    int64_t vf, vt;  // Valid period; all-time without valid time.
    int64_t ts, te;  // Transaction period; all-time without it.
  };
  // Versions bucketed by key (the attribute every statement selects on).
  std::map<int64_t, std::vector<Version>> rels_[kNumRels];
};

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_H_
