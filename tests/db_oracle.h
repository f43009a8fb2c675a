#ifndef QCONT_TESTS_DB_ORACLE_H_
#define QCONT_TESTS_DB_ORACLE_H_

// Reference model of a Database for differential tests. It shares no code
// with Database: facts are kept as strings, deduplicated through a
// std::set, in insertion order, and every answer is a linear scan.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cq/database.h"

namespace qcont {
namespace testgen {

class DatabaseOracle {
 public:
  /// Records a fact; returns true iff it is new (what AddFact returns).
  bool Add(const std::string& relation, const Tuple& tuple) {
    if (!seen_.insert({relation, tuple}).second) return false;
    facts_[relation].push_back(tuple);
    for (const Value& v : tuple) {
      if (domain_set_.insert(v).second) domain_.push_back(v);
    }
    return true;
  }

  /// Facts of `relation` in insertion order (empty if none).
  const std::vector<Tuple>& Facts(const std::string& relation) const {
    static const std::vector<Tuple> kEmpty;
    auto it = facts_.find(relation);
    return it == facts_.end() ? kEmpty : it->second;
  }

  /// Relation names with at least one fact, sorted.
  std::vector<std::string> Relations() const {
    std::vector<std::string> out;
    for (const auto& [name, rows] : facts_) out.push_back(name);
    return out;
  }

  std::size_t NumFacts() const { return seen_.size(); }

  bool Has(const std::string& relation, const Tuple& tuple) const {
    return seen_.count({relation, tuple}) > 0;
  }

  /// Values in first-occurrence order.
  const std::vector<Value>& ActiveDomain() const { return domain_; }

  /// Ascending indices of the rows of `relation` whose values at the
  /// positions set in `mask` equal `key` (one value per set bit, ascending
  /// position order).
  std::vector<std::uint32_t> Bucket(const std::string& relation,
                                    std::uint32_t mask,
                                    const Tuple& key) const {
    std::vector<std::uint32_t> out;
    const std::vector<Tuple>& rows = Facts(relation);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::size_t k = 0;
      bool match = true;
      for (std::uint32_t p = 0; p < 32 && match; ++p) {
        if ((mask >> p & 1u) == 0) continue;
        match = p < rows[r].size() && rows[r][p] == key[k++];
      }
      if (match) out.push_back(static_cast<std::uint32_t>(r));
    }
    return out;
  }

 private:
  std::set<std::pair<std::string, Tuple>> seen_;
  std::map<std::string, std::vector<Tuple>> facts_;
  std::vector<Value> domain_;
  std::set<Value> domain_set_;
};

/// The values of a row slice, resolved through the database's pool.
inline Tuple RowValues(const Database& db, std::span<const ValueId> row) {
  Tuple out;
  for (ValueId id : row) out.push_back(db.ValueName(id));
  return out;
}

/// Pool ids of `key`, or an empty vector if some value was never interned.
inline std::vector<ValueId> KeyIds(const Database& db, const Tuple& key) {
  std::vector<ValueId> ids;
  for (const Value& v : key) {
    const ValueId id = db.ValueIdOf(v);
    if (id == kNoValue) return {};
    ids.push_back(id);
  }
  return ids;
}

/// Asserts that `db` stores exactly the oracle's facts: relations, fact
/// counts, Facts order, NumRows, every Row, HasRow (present rows and their
/// reversals) and the active domain.
inline void ExpectMatchesOracle(const Database& db,
                                const DatabaseOracle& oracle,
                                const std::string& where) {
  ASSERT_EQ(db.NumFacts(), oracle.NumFacts()) << where;
  ASSERT_EQ(db.Relations(), oracle.Relations()) << where;
  EXPECT_EQ(db.ActiveDomain(), oracle.ActiveDomain()) << where;
  for (const std::string& rel : oracle.Relations()) {
    const std::vector<Tuple>& want = oracle.Facts(rel);
    EXPECT_EQ(db.Facts(rel), want) << where << " " << rel;
    const RelationId id = db.RelationIdOf(rel);
    ASSERT_EQ(db.NumRows(id), want.size()) << where << " " << rel;
    for (std::size_t r = 0; r < want.size(); ++r) {
      const std::span<const ValueId> row = db.Row(id, r);
      EXPECT_EQ(RowValues(db, row), want[r]) << where << " row " << r;
      EXPECT_TRUE(db.HasRow(id, row)) << where << " row " << r;
      Tuple reversed(want[r].rbegin(), want[r].rend());
      const std::vector<ValueId> rev_ids = KeyIds(db, reversed);
      EXPECT_EQ(db.HasRow(id, std::span<const ValueId>(rev_ids)),
                oracle.Has(rel, reversed))
          << where << " reversed row " << r;
    }
  }
}

/// Asserts that Probe and ProbeMany return the oracle's bucket for every
/// nonzero mask of `relation` (arity <= 3) and every key in `keys` (full
/// width tuples; each mask probes the projection onto its positions).
inline void ExpectProbesMatchOracle(const Database& db,
                                    const DatabaseOracle& oracle,
                                    const std::string& relation,
                                    const std::vector<Tuple>& keys,
                                    const std::string& where) {
  const RelationId id = db.RelationIdOf(relation);
  const std::size_t arity = db.Arity(id);
  for (std::uint32_t mask = 1; mask < (1u << arity); ++mask) {
    std::vector<ValueId> flat_keys;
    std::vector<std::vector<std::uint32_t>> wants;
    for (const Tuple& full : keys) {
      Tuple key;
      for (std::size_t p = 0; p < arity; ++p) {
        if (mask >> p & 1u) key.push_back(full[p]);
      }
      const std::vector<ValueId> ids = KeyIds(db, key);
      if (ids.empty()) continue;  // a never-interned value: nothing to probe
      const std::vector<std::uint32_t> want =
          oracle.Bucket(relation, mask, key);
      const auto got = db.Probe(id, mask, std::span<const ValueId>(ids));
      ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), want)
          << where << " " << relation << " mask " << mask;
      flat_keys.insert(flat_keys.end(), ids.begin(), ids.end());
      wants.push_back(want);
    }
    std::vector<std::span<const std::uint32_t>> out(wants.size());
    db.ProbeMany(id, mask, flat_keys, out);
    for (std::size_t i = 0; i < wants.size(); ++i) {
      ASSERT_EQ(std::vector<std::uint32_t>(out[i].begin(), out[i].end()),
                wants[i])
          << where << " " << relation << " mask " << mask << " ProbeMany key "
          << i;
    }
  }
}

}  // namespace testgen
}  // namespace qcont

#endif  // QCONT_TESTS_DB_ORACLE_H_
