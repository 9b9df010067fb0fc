// Seeded inputs of the benchmark: the HR/payroll DML stream and the read
// query lists.  Self-contained on purpose: nothing here includes engine code,
// so a change to the engine cannot change the inputs or the reference
// answers computed from them.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// Open end of a period ("inf"); day numbers count from 1970-01-01.
inline constexpr int64_t kInf = std::numeric_limits<int64_t>::max();
inline constexpr int64_t kNegInf = std::numeric_limits<int64_t>::min();

/// splitmix64: small, fast and fully specified, so inputs are identical on
/// every platform and library version.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Real() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Uniform(i)]);
  }
  /// `n` stratified uniforms in [0, 1), one per stratum [j/n, (j+1)/n), in
  /// random order.  Stratifying keeps every seed's inputs close to the
  /// target distribution, so runs with different seeds measure the same
  /// amount of work.
  std::vector<double> Strata(size_t n) {
    std::vector<double> u(n);
    for (size_t j = 0; j < n; ++j) u[j] = (static_cast<double>(j) + Real()) / n;
    Shuffle(&u);
    return u;
  }

 private:
  uint64_t state_;
};

/// Zipf(theta) over [0, n) by inverse CDF; rank 0 is the hottest key.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  /// The key at cumulative probability u in [0, 1).
  uint64_t At(double u) const;

 private:
  std::vector<double> cdf_;
};

/// The four relations, one per kind of the taxonomy.
enum class Rel { kDepartments, kHeadcount, kAssignments, kSalaries };
inline constexpr int kNumRels = 4;
const char* RelName(Rel rel);

enum class Kind { kAppend, kReplace, kDelete };

/// One DML statement in structured form.  Attribute values are integers;
/// departments and heads render as "d<i>" / "h<i>".
///   departments (static)     dept = key, head = val
///   headcount   (rollback)   dept = key, n = val
///   assignments (historical) emp = key,  dept = val
///   salaries    (temporal)   emp = key,  amount = val
/// Replace and delete select by `<key attribute> = key` and, on the two
/// valid-time relations, carry the valid window [vf, vt).
struct Op {
  Rel rel = Rel::kSalaries;
  Kind kind = Kind::kAppend;
  int64_t key = 0;
  int64_t val = 0;
  int64_t vf = 0;
  int64_t vt = kInf;
  int64_t day = 0;  ///< Transaction day the statement commits on.
};

/// The DML kinds reported separately in the traced run.
const char* OpKindName(const Op& op);

std::string DayLit(int64_t day);  ///< "\"YYYY-MM-DD\"" or "\"inf\"".
std::string RenderOp(const Op& op);

/// DDL, attribute indexes and range declarations.
std::vector<std::string> SchemaStatements();

struct CorpusSpec {
  uint64_t employees = 500;
  uint64_t departments = 16;
  double zipf_theta = 0.5;
  /// At most this many statements share a transaction day; a day never
  /// touches the same (relation, key) twice.
  uint32_t stmts_per_day = 32;
  int64_t start_day = 7305;  ///< 1990-01-01.
};

/// Generates the DML stream: first the seed roster (every department, its
/// headcount, one open salary and assignment per employee), then mixed
/// updates in blocks of 100 with a fixed make-up (see gen.cc), shuffled, on
/// stratified Zipf-skewed employees.  A pure function of (spec, seed).
class StreamGen {
 public:
  StreamGen(const CorpusSpec& spec, uint64_t seed);
  std::vector<Op> Roster();
  /// `ops` updates, rounded up to whole blocks of 100.
  std::vector<Op> Updates(size_t ops);

 private:
  enum class Sub;
  Op Push(Op op);
  Op Make(Sub sub, int64_t emp);

  CorpusSpec spec_;
  Rng rng_;
  Zipf zipf_;
  int64_t day_;
  std::vector<std::pair<Rel, int64_t>> today_;
};

/// Read-query classes of the closed loop.
enum class QClass { kAudit, kStab, kLookup, kJoin };
const char* QClassName(QClass c);

/// A retrieve in text and structured form (for the reference model).
struct Query {
  QClass cls = QClass::kAudit;
  Rel rel = Rel::kSalaries;   ///< Single-relation classes.
  int64_t asof = kNegInf;     ///< `as of` day, or kNegInf.
  int64_t asof_to = kNegInf;  ///< `through` day of an `as of` window.
  int64_t stab = kNegInf;     ///< `when x overlap "day"`, or kNegInf.
  int64_t key = -1;           ///< `where x.emp = key`, or -1.
  int64_t amount_lt = -1;     ///< `where s.amount < v`, or -1.
  int64_t band_lo = 0, band_hi = 0;  ///< Join employee band [lo, hi).
  std::string text;
};

/// Builds the bitemporal read mix over [first_day, last_day]: per group of
/// twelve, 3 audits, 3 stabs and 6 point lookups (4 on Zipf-hot
/// employees, 2 uniform).
std::vector<Query> ReadMix(const CorpusSpec& spec, uint64_t seed,
                           int64_t first_day, int64_t last_day, size_t n);

/// Builds `n` salary x assignment when-joins over employee bands of
/// `band` employees.
std::vector<Query> JoinMix(const CorpusSpec& spec, uint64_t seed,
                           uint64_t band, size_t n);

/// `retrieve` of every attribute of `rel`, with no clause yet.
std::string RetrieveAll(Rel rel);

/// Full-content reads used by the persistence checks.
std::vector<Query> ContentQueries(int64_t first_day, int64_t last_day);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
