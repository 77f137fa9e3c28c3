// Aggregates beyond counting (the paper's Section 6 future-work direction,
// in the FAQ/AJAR style): the same cached trie join evaluated over
// different commutative semirings. A synthetic "road network" with edge
// weights is mined for 4-paths:
//   * CountingSemiring  — how many 4-paths exist,
//   * RealSemiring      — total weight-product mass over all 4-paths,
//   * MinPlusSemiring   — the lightest 4-path (shortest weighted walk),
//   * MaxPlusSemiring   — the heaviest 4-path,
//   * BooleanSemiring   — does any 4-path exist at all.
// All five are CachedTrieJoin::Aggregate<S>, the same cached trie join
// that counts: one plan and one cache structure; only ⊕/⊗ change.
//
//   $ ./weighted_patterns

#include <cstdio>
#include <map>

#include "clftj/cached_trie_join.h"
#include "clftj/semiring.h"
#include "data/generators.h"
#include "query/patterns.h"

int main() {
  clftj::Database db;
  db.Put(clftj::PreferentialAttachmentGraph("E", 300, 3, 99));
  const clftj::Query query = clftj::PathQuery(4);
  std::printf("graph: %zu directed edges, query: %s\n\n",
              db.Get("E").size(), query.ToString().c_str());

  // Deterministic per-edge weight (a hash of the endpoints), standing in
  // for road lengths / link costs.
  const auto edge_weight = [&query](clftj::AtomId a,
                                    const clftj::Tuple& mu) -> double {
    clftj::Value u = 0;
    clftj::Value v = 0;
    int seen = 0;
    for (const clftj::Term& t : query.atom(a).terms) {
      if (t.is_variable) (seen++ == 0 ? u : v) = mu[t.var];
    }
    return 1.0 + static_cast<double>((u * 31 + v * 17) % 100) / 100.0;
  };

  clftj::CachedTrieJoin engine;
  {
    const auto r = engine.Aggregate<clftj::CountingSemiring>(query, db);
    std::printf("count        : %llu paths (%.2fms, %llu cache hits)\n",
                static_cast<unsigned long long>(r.value), r.seconds * 1e3,
                static_cast<unsigned long long>(r.stats.cache_hits));
  }
  {
    const auto r =
        engine.Aggregate<clftj::RealSemiring>(query, db, edge_weight);
    std::printf("sum-product  : %.3e total weight mass (%.2fms)\n", r.value,
                r.seconds * 1e3);
  }
  {
    const auto r =
        engine.Aggregate<clftj::MinPlusSemiring>(query, db, edge_weight);
    std::printf("min-plus     : lightest 4-path weighs %.4f (%.2fms)\n",
                r.value, r.seconds * 1e3);
  }
  {
    const auto r =
        engine.Aggregate<clftj::MaxPlusSemiring>(query, db, edge_weight);
    std::printf("max-plus     : heaviest 4-path weighs %.4f (%.2fms)\n",
                r.value, r.seconds * 1e3);
  }
  {
    const auto r = engine.Aggregate<clftj::BooleanSemiring>(query, db);
    std::printf("boolean      : 4-path exists? %s (%.2fms)\n",
                r.value ? "yes" : "no", r.seconds * 1e3);
  }
  return 0;
}
