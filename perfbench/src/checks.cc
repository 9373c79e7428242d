#include "checks.h"

#include <algorithm>
#include <unordered_map>

namespace perfbench {

using mtmlf::query::CompareOp;
using mtmlf::query::FilterPredicate;
using mtmlf::query::JoinPredicate;
using mtmlf::query::Query;
using mtmlf::storage::Column;
using mtmlf::storage::DataType;

namespace {

template <typename T>
bool Compare(const T& lhs, CompareOp op, const T& rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
    case CompareOp::kLike:
      return false;
  }
  return false;
}

bool RowPasses(const Column& col, const FilterPredicate& f, size_t row) {
  if (col.type() == DataType::kString) {
    const std::string& cell = col.StringAt(row);
    if (f.op == CompareOp::kLike) return NaiveLike(cell, f.value.AsString());
    return Compare(cell, f.op, f.value.AsString());
  }
  double cell = col.type() == DataType::kInt64
                    ? static_cast<double>(col.Int64At(row))
                    : col.DoubleAt(row);
  return Compare(cell, f.op, f.value.AsNumeric());
}

// The join predicate linking table `a` to table `b`, if any.
const JoinPredicate* Link(const Query& q, int a, int b) {
  for (const auto& j : q.joins) {
    if ((j.left_table == a && j.right_table == b) ||
        (j.left_table == b && j.right_table == a)) {
      return &j;
    }
  }
  return nullptr;
}

}  // namespace

bool NaiveLike(const std::string& text, const std::string& pattern) {
  // match[j] == text[0, i) matches pattern[0, j).
  std::vector<bool> match(pattern.size() + 1, false);
  match[0] = true;
  for (size_t j = 1; j <= pattern.size() && pattern[j - 1] == '%'; ++j) {
    match[j] = true;
  }
  for (size_t i = 1; i <= text.size(); ++i) {
    std::vector<bool> next(pattern.size() + 1, false);
    for (size_t j = 1; j <= pattern.size(); ++j) {
      char p = pattern[j - 1];
      if (p == '%') {
        next[j] = next[j - 1] || match[j];
      } else if (p == '_' || p == text[i - 1]) {
        next[j] = match[j - 1];
      }
    }
    match.swap(next);
  }
  return match[pattern.size()];
}

std::vector<uint32_t> NaiveFilter(const mtmlf::storage::Database& db,
                                  const Query& q, int table) {
  const auto& t = db.table(static_cast<size_t>(table));
  std::vector<std::pair<const Column*, const FilterPredicate*>> preds;
  for (const auto& f : q.filters) {
    if (f.table == table) preds.emplace_back(t.GetColumn(f.column), &f);
  }
  std::vector<uint32_t> rows;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    bool keep = true;
    for (const auto& [col, f] : preds) {
      if (col == nullptr || !RowPasses(*col, *f, r)) {
        keep = false;
        break;
      }
    }
    if (keep) rows.push_back(static_cast<uint32_t>(r));
  }
  return rows;
}

namespace {

// Join tuples of the subtree of `table` that hangs away from `parent`, per
// row of `table` that passes q's filters: each row's weight is the product,
// over the child tables linked to it, of the summed weights of the child
// rows with its join key. `visited` counts the tables reached.
std::vector<std::pair<uint32_t, double>> SubtreeWeights(
    const mtmlf::storage::Database& db, const Query& q,
    const std::vector<int>& subset, int table, int parent, size_t* visited) {
  ++*visited;
  std::vector<std::pair<uint32_t, double>> rows;
  for (uint32_t r : NaiveFilter(db, q, table)) rows.emplace_back(r, 1.0);
  for (int child : subset) {
    if (child == parent) continue;
    const JoinPredicate* pred = Link(q, table, child);
    if (pred == nullptr) continue;
    const bool child_left = pred->left_table == child;
    const auto& child_col = *db.table(static_cast<size_t>(child))
                                 .GetColumn(child_left ? pred->left_column
                                                       : pred->right_column);
    const auto& own_col =
        *db.table(static_cast<size_t>(table))
             .GetColumn(child_left ? pred->right_column : pred->left_column);
    std::unordered_map<int64_t, double> by_key;
    for (const auto& [r, w] :
         SubtreeWeights(db, q, subset, child, table, visited)) {
      by_key[child_col.Int64At(r)] += w;
    }
    for (auto& [r, w] : rows) {
      auto it = by_key.find(own_col.Int64At(r));
      w *= it == by_key.end() ? 0.0 : it->second;
    }
  }
  return rows;
}

}  // namespace

std::optional<double> NaiveJoinCount(const mtmlf::storage::Database& db,
                                     const Query& q,
                                     const std::vector<int>& subset) {
  if (subset.empty()) return std::nullopt;
  size_t links = 0;
  for (size_t a = 0; a < subset.size(); ++a) {
    for (size_t b = a + 1; b < subset.size(); ++b) {
      links += Link(q, subset[a], subset[b]) != nullptr ? 1 : 0;
    }
  }
  if (links + 1 != subset.size()) return std::nullopt;  // not one tree
  size_t visited = 0;
  double count = 0.0;
  for (const auto& [r, w] :
       SubtreeWeights(db, q, subset, subset[0], -1, &visited)) {
    count += w;
  }
  if (visited != subset.size()) return std::nullopt;  // not connected
  return count;
}

bool IsConnectedPermutation(const Query& q, const std::vector<int>& order) {
  std::vector<int> a = order;
  std::vector<int> b = q.tables;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  if (a != b || std::adjacent_find(a.begin(), a.end()) != a.end()) {
    return false;
  }
  for (size_t i = 1; i < order.size(); ++i) {
    bool linked = false;
    for (size_t k = 0; k < i && !linked; ++k) {
      linked = Link(q, order[k], order[i]) != nullptr;
    }
    if (!linked) return false;
  }
  return true;
}

}  // namespace perfbench
