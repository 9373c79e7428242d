// Output checks that do not trust the library: the benchmark recomputes
// what it compares against with its own, deliberately naive code.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <optional>
#include <vector>

#include "query/query.h"
#include "storage/database.h"

namespace perfbench {

/// SQL LIKE with '%' and '_' wildcards, by dynamic programming over
/// (pattern prefix, text prefix).
bool NaiveLike(const std::string& text, const std::string& pattern);

/// Rows of `table` satisfying every filter `q` places on it, decided cell
/// by cell from the stored columns.
std::vector<uint32_t> NaiveFilter(const mtmlf::storage::Database& db,
                                  const mtmlf::query::Query& q, int table);

/// True cardinality of joining `subset` (database table indices) under q's
/// filters. The join is counted without materialising it: row weights are
/// summed per join key from the leaves of the join tree up to subset[0].
/// Returns nullopt when q's join predicates within the subset do not form
/// one tree.
std::optional<double> NaiveJoinCount(const mtmlf::storage::Database& db,
                                     const mtmlf::query::Query& q,
                                     const std::vector<int>& subset);

/// True when `order` is a permutation of q.tables and every prefix of it is
/// connected by q's join predicates (each table joins an earlier one).
bool IsConnectedPermutation(const mtmlf::query::Query& q,
                            const std::vector<int>& order);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
