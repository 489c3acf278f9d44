// Exactness oracle for the serving benchmark.
//
// Written against the definition of the Footrule distance with location
// parameter k (an item missing from a top-k list sits at rank k; ranks
// are 0-based), calling none of the library's distance, scan or
// validator code: a wrong kernel cannot make its own answers look right.
// Brute-force range and k-NN are plain loops over a flat row table.
//
// SelfTest() checks the distance on hand-worked examples and feeds the
// answer checks corrupted answers (an id dropped, an id added, a k-NN
// distance off by one); each must be rejected.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Items = std::span<const uint32_t>;

/// One k-NN answer entry: (distance, id), ordered by distance then id.
struct Near {
  uint64_t distance = 0;
  uint32_t id = 0;
  friend bool operator==(const Near&, const Near&) = default;
  friend bool operator<(const Near& a, const Near& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
  }
};

/// Footrule by definition: sum over the union of both lists of the rank
/// difference, an absent item counting as rank k. O(k^2), used to check
/// the table-driven distance below.
inline uint64_t FootruleByDefinition(Items a, Items b) {
  const uint64_t k = a.size();
  auto rank_in = [k](Items list, uint32_t item) {
    for (uint64_t p = 0; p < list.size(); ++p) {
      if (list[p] == item) return p;
    }
    return k;
  };
  uint64_t sum = 0;
  for (uint64_t p = 0; p < k; ++p) {
    const uint64_t other = rank_in(b, a[p]);
    sum += other > p ? other - p : p - other;
  }
  for (uint64_t p = 0; p < k; ++p) {
    if (rank_in(a, b[p]) == k) sum += k - p;  // absent from a: |k - p|
  }
  return sum;
}

/// Distances from one bound query to many rows through an item -> rank
/// table. Rows are k item ids in rank order.
class QueryTable {
 public:
  QueryTable(Items query, uint32_t domain)
      : k_(static_cast<uint32_t>(query.size())), rank_(domain + 1, kAbsent) {
    for (uint32_t p = 0; p < k_; ++p) {
      rank_[std::min<uint32_t>(query[p], domain)] = p;
      missing_total_ += k_ - p;
    }
  }

  uint64_t Distance(Items row) const { return DistanceUpTo(row, UINT64_MAX); }

  /// The distance when it is at most `limit`; otherwise some value above
  /// `limit` (every term is non-negative, so the scan stops as soon as
  /// the partial sum passes it).
  uint64_t DistanceUpTo(Items row, uint64_t limit) const {
    uint64_t sum = 0;
    uint64_t covered = 0;  // sum of (k - rank_q) over shared items
    for (uint32_t p = 0; p < k_; ++p) {
      const uint32_t r = Lookup(row[p]);
      if (r == kAbsent) {
        sum += k_ - p;
      } else {
        sum += r > p ? r - p : p - r;
        covered += k_ - r;
      }
      if (sum > limit) return sum;
    }
    return sum + (missing_total_ - covered);
  }

  /// Whether the row-order partial sum (a lower bound of the distance)
  /// already exceeds theta before the last rank: the candidates a
  /// validator with an early exit rejects without a full distance.
  bool PrunedEarly(Items row, uint64_t theta) const {
    uint64_t sum = 0;
    for (uint32_t p = 0; p + 1 < k_; ++p) {
      const uint32_t r = Lookup(row[p]);
      sum += r == kAbsent ? k_ - p : (r > p ? r - p : p - r);
      if (sum > theta) return true;
    }
    return false;
  }

 private:
  static constexpr uint32_t kAbsent = UINT32_MAX;
  uint32_t Lookup(uint32_t item) const {
    return item + 1 < rank_.size() ? rank_[item] : kAbsent;
  }
  uint32_t k_;
  std::vector<uint32_t> rank_;
  uint64_t missing_total_ = 0;
};

/// A flat table of rows (row i = items [i*k, (i+1)*k)).
struct Rows {
  uint32_t k = 0;
  uint32_t domain = 0;  // every item id is < domain
  std::vector<uint32_t> items;

  size_t size() const { return k == 0 ? 0 : items.size() / k; }
  Items row(size_t i) const { return Items(items.data() + i * k, k); }
  void Append(Items row) {
    items.insert(items.end(), row.begin(), row.end());
    for (uint32_t item : row) domain = std::max(domain, item + 1);
  }
};

/// All rows within theta of `query`, ascending ids.
inline std::vector<uint32_t> BruteRange(const Rows& rows, Items query,
                                        uint64_t theta) {
  const QueryTable table(query, rows.domain);
  std::vector<uint32_t> out;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (table.DistanceUpTo(rows.row(i), theta) <= theta) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

/// The `j` nearest rows, ordered by (distance, id). A bounded max-heap
/// keeps the best j so far; a row whose partial distance passes the
/// j-th best is dropped early (ties are scanned in full and ordered by
/// id).
inline std::vector<Near> BruteKnn(const Rows& rows, Items query, size_t j) {
  const QueryTable table(query, rows.domain);
  std::vector<Near> heap;
  for (size_t i = 0; i < rows.size() && j > 0; ++i) {
    const uint64_t limit =
        heap.size() < j ? UINT64_MAX : heap.front().distance;
    const Near cand{table.DistanceUpTo(rows.row(i), limit),
                    static_cast<uint32_t>(i)};
    if (cand.distance > limit) continue;
    if (heap.size() < j) {
      heap.push_back(cand);
      std::push_heap(heap.begin(), heap.end());
    } else if (cand < heap.front()) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = cand;
      std::push_heap(heap.begin(), heap.end());
    }
  }
  std::sort_heap(heap.begin(), heap.end());
  return heap;
}

/// Empty when `got` equals `want`; otherwise a one-line reason.
template <typename T>
std::string CompareExact(const std::vector<T>& got,
                         const std::vector<T>& want) {
  if (got == want) return "";
  return "answer of " + std::to_string(got.size()) +
         " entries differs from the oracle's " + std::to_string(want.size());
}

/// Order-insensitive digest of a set of ids: their count and the sum of
/// a 64-bit mix of each id. Lets a run keep one answer in 16 bytes.
struct IdDigest {
  uint64_t count = 0;
  uint64_t sum = 0;
  void Add(uint32_t id) {
    uint64_t z = id + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    sum += z ^ (z >> 31);
    ++count;
  }
  friend bool operator==(const IdDigest&, const IdDigest&) = default;
};

/// Digest of a range answer; one that is not strictly ascending gets a
/// count no answer can have, so it matches nothing.
inline IdDigest DigestAscending(const std::vector<uint32_t>& ids) {
  IdDigest d;
  for (size_t i = 0; i < ids.size(); ++i) d.Add(ids[i]);
  for (size_t i = 1; i < ids.size(); ++i) {
    if (ids[i - 1] >= ids[i]) d.count = UINT64_MAX;
  }
  return d;
}

/// Checks a range answer taken while rows were inserted and deleted,
/// given by its digest: it must hold every id of `must` (rows alive for
/// the whole call and within theta) and otherwise only ids of `may`
/// (rows visible at some point of the call and within theta). Both are
/// ascending, `must` a subset of `may`. Tries every subset of the few
/// rows a concurrent write touched; a wrong answer passes only on a
/// 64-bit digest collision.
inline std::string CheckRangeBetween(const IdDigest& got,
                                     const std::vector<uint32_t>& must,
                                     const std::vector<uint32_t>& may) {
  if (got.count == UINT64_MAX) return "range answer not strictly ascending";
  IdDigest base;
  for (uint32_t id : must) base.Add(id);
  std::vector<uint32_t> optional;
  std::set_difference(may.begin(), may.end(), must.begin(), must.end(),
                      std::back_inserter(optional));
  if (optional.size() > 20) {
    return "range answer overlaps " + std::to_string(optional.size()) +
           " concurrent writes, too many to check";
  }
  for (uint64_t mask = 0; mask < (uint64_t{1} << optional.size()); ++mask) {
    IdDigest candidate = base;
    for (size_t i = 0; i < optional.size(); ++i) {
      if ((mask >> i) & 1) candidate.Add(optional[i]);
    }
    if (candidate == got) return "";
  }
  return "range answer of " + std::to_string(got.count) +
         " ids is not the rows alive for the whole call (" +
         std::to_string(must.size()) + ") plus some of the " +
         std::to_string(optional.size()) + " rows written during it";
}

/// Checks a k-NN answer taken while rows changed: sorted by (distance,
/// id), every distance exact (`exact` maps an id to its true distance,
/// or UINT64_MAX when the id may not be visible), and the i-th distance
/// no worse than the i-th smallest distance among rows alive for the
/// whole call (`floor`, ascending, at least j entries).
template <typename ExactFn>
std::string CheckKnnBetween(const std::vector<Near>& got, size_t j,
                            const std::vector<uint64_t>& floor,
                            ExactFn exact) {
  if (got.size() != j) {
    return "k-NN answer has " + std::to_string(got.size()) +
           " entries, want " + std::to_string(j);
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (i > 0 && !(got[i - 1] < got[i])) return "k-NN answer not sorted";
    const uint64_t truth = exact(got[i].id);
    if (truth == UINT64_MAX) {
      return "k-NN answer holds id " + std::to_string(got[i].id) +
             " not visible during the call";
    }
    if (truth != got[i].distance) {
      return "k-NN distance of id " + std::to_string(got[i].id) + " is " +
             std::to_string(got[i].distance) + ", oracle says " +
             std::to_string(truth);
    }
    if (i < floor.size() && got[i].distance > floor[i]) {
      return "k-NN answer worse than the rows alive for the whole call";
    }
  }
  return "";
}

/// Hand-worked examples plus corrupted answers; empty on success.
inline std::string SelfTest() {
  const std::vector<uint32_t> a = {1, 2, 3};
  const std::vector<uint32_t> b = {2, 1, 4};
  const std::vector<uint32_t> c = {7, 8, 9};
  // a vs b: items 1,2 swap ranks (1 + 1); 3 sits at rank 2 in a and is
  // absent (rank 3) from b (1); 4 sits at rank 2 in b, absent from a (1).
  if (FootruleByDefinition(a, b) != 4) return "Footrule(a, b) != 4";
  // Disjoint lists: 2 * (3 + 2 + 1) = k(k+1) = 12.
  if (FootruleByDefinition(a, c) != 12) return "Footrule(a, c) != 12";
  if (FootruleByDefinition(a, a) != 0) return "Footrule(a, a) != 0";

  Rows rows;
  rows.k = 3;
  for (const auto* r : {&a, &b, &c}) rows.Append(*r);
  const QueryTable table(a, rows.domain);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (table.Distance(rows.row(i)) != FootruleByDefinition(a, rows.row(i))) {
      return "table distance disagrees with the definition";
    }
  }
  // theta 4 keeps a (0) and b (4), drops c (12).
  const std::vector<uint32_t> range = BruteRange(rows, a, 4);
  if (range != std::vector<uint32_t>{0, 1}) return "BruteRange({a,b,c}, a, 4)";
  const std::vector<Near> knn = BruteKnn(rows, a, 2);
  if (knn != std::vector<Near>{{0, 0}, {4, 1}}) return "BruteKnn(a, 2)";

  // Corruptions the checks must reject.
  std::vector<uint32_t> dropped = {0};
  std::vector<uint32_t> added = {0, 1, 2};
  std::vector<Near> off_by_one = {{0, 0}, {5, 1}};
  if (CompareExact(dropped, range).empty()) return "dropped id accepted";
  if (CompareExact(added, range).empty()) return "added id accepted";
  if (CompareExact(off_by_one, knn).empty()) return "k-NN distance accepted";
  auto digest = [](const std::vector<uint32_t>& ids) {
    IdDigest d;
    for (uint32_t id : ids) d.Add(id);
    return d;
  };
  const std::vector<uint32_t> must = {0};  // row 1 written during the call
  if (!CheckRangeBetween(digest({0}), must, range).empty() ||
      !CheckRangeBetween(digest({0, 1}), must, range).empty()) {
    return "answer between must and may rejected";
  }
  if (CheckRangeBetween(digest({1}), must, range).empty()) {
    return "dropped id accepted under writes";
  }
  if (CheckRangeBetween(digest(added), must, range).empty()) {
    return "added id accepted under writes";
  }
  auto exact = [&](uint32_t id) { return table.Distance(rows.row(id)); };
  if (!CheckKnnBetween(knn, 2, {0, 4}, exact).empty()) {
    return "true k-NN answer rejected";
  }
  if (CheckKnnBetween(off_by_one, 2, {0, 4}, exact).empty()) {
    return "k-NN distance off by one accepted under writes";
  }
  return "";
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
