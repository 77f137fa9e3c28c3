// Incremental maintenance end-to-end (docs/incremental.md): relation
// delta batches merged into the sorted columns, database minor versions and
// the bounded delta log, every engine over the post-delta data, reuse
// survival across deltas (plans revalidated, substrates rebuilt once per
// relation version and shared, subtree caches invalidated per atom), and
// DELTA through the service and wire protocol. The randomized
// differentials pin delta application against rebuild-from-scratch:
// bit-identical tuple sets for every engine and worker count, and
// bit-identical warm-cache answers across rounds of deltas.

#include <algorithm>
#include <cstdint>
#include <future>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/database.h"
#include "data/generators.h"
#include "engine/engine.h"
#include "engine/reuse.h"
#include "query/patterns.h"
#include "server/protocol.h"
#include "server/service.h"
#include "td/planner.h"
#include "test_util.h"

namespace clftj {
namespace {

using Edge = std::pair<Value, Value>;

Relation EdgeRelation(const std::string& name,
                      const std::vector<Edge>& edges) {
  Relation rel(name, 2);
  for (const auto& [a, b] : edges) rel.AddPair(a, b);
  rel.Normalize();
  return rel;
}

std::vector<Tuple> VisibleTuples(const Relation& rel) {
  std::vector<Tuple> out;
  for (std::size_t i = 0; i < rel.size(); ++i) out.push_back(rel.TupleAt(i));
  return out;
}

// ---------------------------------------------------------------------------
// Relation: batches merged into the sorted image.

TEST(RelationDelta, BatchMergesIntoTheVisibleImage) {
  Relation rel = EdgeRelation("E", {{1, 2}, {3, 4}, {5, 6}});
  std::vector<Tuple> changed;
  const DeltaResult result = rel.ApplyDelta({{2, 3}}, {{3, 4}}, &changed);
  EXPECT_EQ(result.applied_adds, 1u);
  EXPECT_EQ(result.applied_deletes, 1u);
  EXPECT_EQ(changed, (std::vector<Tuple>{{2, 3}, {3, 4}}));
  EXPECT_EQ(rel.size(), 3u);
  EXPECT_EQ(VisibleTuples(rel),
            (std::vector<Tuple>{{1, 2}, {2, 3}, {5, 6}}));
  // Every batch that changes a row is one version step.
  EXPECT_EQ(rel.compactions(), 1u);

  // Inserts land in order around kept rows, also before the first and
  // after the last one, and several may share one insertion point.
  changed.clear();
  rel.ApplyDelta({{0, 9}, {1, 3}, {1, 4}, {9, 0}}, {{1, 2}, {5, 6}},
                 &changed);
  EXPECT_EQ(VisibleTuples(rel),
            (std::vector<Tuple>{{0, 9}, {1, 3}, {1, 4}, {2, 3}, {9, 0}}));
  EXPECT_EQ(changed.size(), 6u);
  EXPECT_EQ(rel.compactions(), 2u);
}

TEST(RelationDelta, NoOpAddsAndDeletesAreIgnored) {
  Relation rel = EdgeRelation("E", {{1, 2}});
  const std::size_t stats_distinct = rel.DistinctInColumn(0);
  const std::uint64_t stats_builds = rel.stats_builds();
  // Re-adding a present tuple and deleting an absent one change nothing.
  std::vector<Tuple> changed;
  DeltaResult result = rel.ApplyDelta({{1, 2}}, {{9, 9}}, &changed);
  EXPECT_EQ(result.applied_adds, 0u);
  EXPECT_EQ(result.applied_deletes, 0u);
  EXPECT_TRUE(changed.empty());
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.compactions(), 0u);

  // Deleting and re-adding the same tuple in one batch applies both steps
  // but leaves the visible image, the version and the stats as they were.
  result = rel.ApplyDelta({{1, 2}}, {{1, 2}}, &changed);
  EXPECT_EQ(result.applied_adds, 1u);
  EXPECT_EQ(result.applied_deletes, 1u);
  EXPECT_TRUE(changed.empty());
  EXPECT_EQ(VisibleTuples(rel), (std::vector<Tuple>{{1, 2}}));
  EXPECT_EQ(rel.compactions(), 0u);
  EXPECT_EQ(rel.DistinctInColumn(0), stats_distinct);
  EXPECT_EQ(rel.stats_builds(), stats_builds) << "stats memo survived";
}

// ---------------------------------------------------------------------------
// Database: minor versions and the bounded delta log.

TEST(DatabaseDelta, MinorVersionBumpsWithoutAGenerationBump) {
  Database db;
  db.Put(EdgeRelation("E", {{1, 2}, {2, 3}}));
  const std::uint64_t generation = db.generation();
  const std::uint64_t minor = db.minor_version();

  DeltaBatch batch;
  batch.relation = "E";
  batch.adds = {{3, 4}, {1, 2}};  // (1,2) is present: a no-op
  std::string error;
  DeltaResult result;
  ASSERT_TRUE(db.ApplyDelta(batch, &error, &result)) << error;
  EXPECT_EQ(result.applied_adds, 1u);
  EXPECT_EQ(db.generation(), generation);
  EXPECT_EQ(db.minor_version(), minor + 1);

  std::vector<const DeltaLogEntry*> deltas;
  ASSERT_TRUE(db.DeltasSince(minor, &deltas));
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0]->relation, "E");
  // Only the tuple that changed the visible image is logged.
  EXPECT_EQ(deltas[0]->changed, (std::vector<Tuple>{{3, 4}}));
}

TEST(DatabaseDelta, BadBatchAppliesNothing) {
  Database db;
  db.Put(EdgeRelation("E", {{1, 2}}));
  const std::uint64_t minor = db.minor_version();
  std::string error;

  DeltaBatch unknown;
  unknown.relation = "nope";
  unknown.adds = {{1, 2}};
  EXPECT_FALSE(db.ApplyDelta(unknown, &error));
  EXPECT_FALSE(error.empty());

  DeltaBatch bad_arity;
  bad_arity.relation = "E";
  bad_arity.adds = {{1, 2, 3}};
  EXPECT_FALSE(db.ApplyDelta(bad_arity, &error));

  EXPECT_EQ(db.minor_version(), minor);
  EXPECT_EQ(db.Get("E").size(), 1u);
}

TEST(DatabaseDelta, ValidateDeltaIsApplyDeltasCheck) {
  // The service admits a delta with ValidateDelta and applies it later
  // with ApplyDelta: both must give the same verdict and the same text,
  // and validating alone must change nothing.
  Database db;
  db.Put(EdgeRelation("E", {{1, 2}}));
  const std::vector<std::pair<DeltaBatch, std::string>> cases = {
      {{"nope", {{1, 2}}, {}}, "unknown relation: nope"},
      {{"E", {{1, 2, 3}}, {}}, "arity mismatch for relation E"},
      {{"E", {}, {{1}}}, "arity mismatch for relation E"},
      {{"E", {{2, 3}}, {{1, 2}}}, ""},
  };
  for (const auto& [batch, want] : cases) {
    const std::uint64_t minor = db.minor_version();
    std::string validated;
    EXPECT_EQ(db.ValidateDelta(batch, &validated), want.empty());
    EXPECT_EQ(validated, want);
    EXPECT_EQ(db.minor_version(), minor) << "validation applied something";
    std::string applied;
    EXPECT_EQ(db.ApplyDelta(batch, &applied), want.empty());
    EXPECT_EQ(applied, want);
  }
  EXPECT_EQ(db.Get("E").size(), 1u);  // {1,2} deleted, {2,3} added
}

TEST(DatabaseDelta, PutResetsTheDeltaLogFloor) {
  Database db;
  db.Put(EdgeRelation("E", {{1, 2}}));
  const std::uint64_t minor = db.minor_version();
  DeltaBatch batch;
  batch.relation = "E";
  batch.adds = {{2, 3}};
  ASSERT_TRUE(db.ApplyDelta(batch));

  db.Put(EdgeRelation("F", {{7, 8}}));
  // The log no longer reaches back past the Put: consumers synced before it
  // must fall back to full invalidation.
  std::vector<const DeltaLogEntry*> deltas;
  EXPECT_FALSE(db.DeltasSince(minor, &deltas));
  EXPECT_TRUE(db.DeltasSince(db.minor_version(), &deltas));
  EXPECT_TRUE(deltas.empty());
}

// ---------------------------------------------------------------------------
// Differential: delta application vs rebuild-from-scratch, every engine.

struct EngineConfig {
  std::string name;
  int threads = 0;
};

const std::vector<EngineConfig>& AllEngineConfigs() {
  static const std::vector<EngineConfig> configs = {
      {"PairwiseHJ"}, {"GenericJoin"}, {"LFTJ"},          {"CLFTJ"},
      {"CLFTJ-P", 1}, {"CLFTJ-P", 2},  {"CLFTJ-P", 8},
  };
  return configs;
}

std::vector<Tuple> EngineTuples(const EngineConfig& config, const Query& q,
                                const Database& db) {
  EngineOptions options;
  options.threads = config.threads;
  const std::unique_ptr<JoinEngine> engine = MakeEngine(config.name, options);
  return testing::CollectTuples(*engine, q, db);
}

// Applies random add/delete batches to a live database while mirroring
// them in a plain set-of-edges model; after every round, every engine over
// the live relation must produce the bit-identical tuple set an engine over
// a rebuilt-from-scratch relation produces.
void RunDifferential(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Value> value(0, 24);

  std::set<Edge> model;
  for (int i = 0; i < 120; ++i) model.insert({value(rng), value(rng)});
  Database live;
  live.Put(EdgeRelation("E", {model.begin(), model.end()}));

  const std::vector<Query> queries = {
      testing::Q("E(x,y), E(y,z)"),
      testing::Q("E(x,y), E(y,z), E(z,x)"),
  };

  for (int round = 0; round < 5; ++round) {
    DeltaBatch batch;
    batch.relation = "E";
    for (int i = 0; i < 8; ++i) {
      batch.adds.push_back({value(rng), value(rng)});
    }
    std::uniform_int_distribution<std::size_t> pick(0, model.size() - 1);
    for (int i = 0; i < 4 && !model.empty(); ++i) {
      auto it = model.begin();
      std::advance(it, pick(rng) % model.size());
      batch.deletes.push_back({it->first, it->second});
    }
    std::string error;
    ASSERT_TRUE(live.ApplyDelta(batch, &error)) << error;
    for (const Tuple& t : batch.deletes) model.erase({t[0], t[1]});
    for (const Tuple& t : batch.adds) model.insert({t[0], t[1]});

    Database rebuilt;
    rebuilt.Put(EdgeRelation("E", {model.begin(), model.end()}));
    ASSERT_EQ(VisibleTuples(live.Get("E")),
              VisibleTuples(rebuilt.Get("E")))
        << "visible image diverged from the model in round " << round;

    for (const Query& q : queries) {
      const std::vector<Tuple> want = testing::ReferenceTuples(q, rebuilt);
      for (const EngineConfig& config : AllEngineConfigs()) {
        EXPECT_EQ(EngineTuples(config, q, live), want)
            << config.name << " threads=" << config.threads << " round "
            << round << " seed " << seed;
      }
    }
  }
}

TEST(DeltaDifferential, OverlaidTriesMatchRebuiltOnes) {
  // No overlay is left to engage: every batch merges into the sorted
  // columns, so the tries the engines read are the per-version builds.
  RunDifferential(/*seed=*/7);
}

TEST(DeltaDifferential, CompactionPreservesResults) {
  // Every row-changing batch is compacted into the columns at once and
  // bumps the version each round.
  RunDifferential(/*seed=*/8);
}

// The engine's answer for `q` as the serving loop computes it: `prepared`
// injected exactly as QueryService injects it (plan, substrate, and the
// persistent cache of the request's mode), or only `plan` injected when
// `prepared` is null. Eval answers keep their emission order.
struct Answer {
  std::uint64_t count = 0;
  std::vector<Tuple> stream;
};

Answer RunWith(const Query& q, const Database& db, const std::string& mode,
               const CrossQueryReuse::Prepared* prepared,
               std::shared_ptr<const CachedPlan> plan = nullptr) {
  EngineOptions options;
  options.prepared_plan = std::move(plan);
  if (prepared != nullptr) {
    options.prepared_plan = prepared->plan;
    options.prepared_substrate = prepared->substrate;
    if (mode == "count") {
      options.shared_count_cache = &prepared->caches->count;
    } else {
      options.shared_eval_cache = &prepared->caches->eval;
    }
  }
  const std::unique_ptr<JoinEngine> engine = MakeEngine("CLFTJ", options);
  Answer answer;
  RunResult result;
  if (mode == "count") {
    result = engine->Count(q, db, RunLimits{});
  } else {
    result = engine->Evaluate(
        q, db, [&answer](const Tuple& t) { answer.stream.push_back(t); },
        RunLimits{});
  }
  EXPECT_EQ(result.status, RunStatus::kOk);
  answer.count = result.count;
  return answer;
}

// Subtree-cache hits of both tables, locked and lock-free.
std::uint64_t Hits(const ShapeCaches& caches) {
  return caches.count.AggregatedStats().cache_hits + caches.count.HotHits() +
         caches.eval.AggregatedStats().cache_hits + caches.eval.HotHits();
}

// Warm caches across deltas: one CrossQueryReuse serves every shape in both
// modes through rounds of random deltas (several batches land between some
// Prepares, so one invalidation sweep covers several deltas; some batches
// are partly or wholly no-ops). After every round each warm answer must
// equal a cold run on a database rebuilt from the model — the same plan, no
// reused trie and no cached subtree result, the same (single) thread
// count — with an identical count and an identical tuple multiset. The
// stream is compared sorted: a cached eval subtree is expanded at the leaf,
// after the depths that follow it, so a warm run emits the same tuples as
// a cold one in a different order even when no delta ever lands.
TEST(DeltaDifferential, WarmCachesMatchAColdRebuild) {
  std::mt19937_64 rng(29);
  std::uniform_int_distribution<Value> value(0, 29);
  std::set<Edge> model;
  for (int i = 0; i < 110; ++i) model.insert({value(rng), value(rng)});
  Database live;
  live.Put(EdgeRelation("E", {model.begin(), model.end()}));

  const std::vector<Query> shapes = {
      CycleQuery(3),
      CycleQuery(4),
      CycleQuery(5),
      PathQuery(4),  // the 3-path
      LollipopQuery(3, 2),
      testing::Q("E(x,y), E(x,z), E(x,w)"),  // star
      RandomPatternQuery(5, 0.5, 3),
  };
  CrossQueryReuse reuse(ReuseOptions{}, PlannerOptions{}, CacheOptions{},
                        /*stripes_hint=*/1);
  std::uint64_t hits = 0;
  for (int round = 0; round < 6; ++round) {
    if (round > 0) {
      const int batches = 1 + round % 2;
      for (int b = 0; b < batches; ++b) {
        DeltaBatch batch;
        batch.relation = "E";
        for (int i = 0; i < 3; ++i) {
          batch.adds.push_back({value(rng), value(rng)});
        }
        std::uniform_int_distribution<std::size_t> pick(0, model.size() - 1);
        for (int i = 0; i < 3; ++i) {
          auto it = model.begin();
          std::advance(it, pick(rng));
          batch.deletes.push_back({it->first, it->second});
        }
        if (round == 3) batch.adds.push_back(batch.deletes.front());
        ASSERT_TRUE(live.ApplyDelta(batch));
        for (const Tuple& t : batch.deletes) model.erase({t[0], t[1]});
        for (const Tuple& t : batch.adds) model.insert({t[0], t[1]});
      }
    }
    Database rebuilt;
    rebuilt.Put(EdgeRelation("E", {model.begin(), model.end()}));
    for (const Query& q : shapes) {
      for (const std::string mode : {"count", "eval"}) {
        ExecStats stats;
        const CrossQueryReuse::Prepared prepared =
            reuse.Prepare(q, live, &stats);
        ASSERT_NE(prepared.caches, nullptr);
        const std::uint64_t hits_before = Hits(*prepared.caches);
        const Answer warm = RunWith(q, live, mode, &prepared);
        hits += Hits(*prepared.caches) - hits_before;
        Answer cold = RunWith(q, rebuilt, mode, nullptr, prepared.plan);
        EXPECT_EQ(warm.count, cold.count)
            << q.ToString() << " " << mode << " round " << round;
        std::vector<Tuple> warm_tuples = warm.stream;
        std::sort(warm_tuples.begin(), warm_tuples.end());
        std::sort(cold.stream.begin(), cold.stream.end());
        EXPECT_EQ(warm_tuples, cold.stream)
            << q.ToString() << " " << mode << " round " << round;
      }
    }
  }
  EXPECT_GT(hits, 0u) << "the warm runs must actually hit the caches";
}

TEST(DeltaDifferential, DeleteEverythingThenReadd) {
  Database live;
  const std::vector<Edge> edges = {{1, 2}, {2, 3}, {3, 1}, {3, 4}};
  live.Put(EdgeRelation("E", edges));

  DeltaBatch wipe;
  wipe.relation = "E";
  for (const auto& [a, b] : edges) wipe.deletes.push_back({a, b});
  ASSERT_TRUE(live.ApplyDelta(wipe));
  const Query q = testing::Q("E(x,y), E(y,z), E(z,x)");
  for (const EngineConfig& config : AllEngineConfigs()) {
    EXPECT_TRUE(EngineTuples(config, q, live).empty()) << config.name;
  }

  DeltaBatch readd;
  readd.relation = "E";
  for (const auto& [a, b] : edges) readd.adds.push_back({a, b});
  ASSERT_TRUE(live.ApplyDelta(readd));
  Database rebuilt;
  rebuilt.Put(EdgeRelation("E", edges));
  const std::vector<Tuple> want = testing::ReferenceTuples(q, rebuilt);
  ASSERT_FALSE(want.empty());
  for (const EngineConfig& config : AllEngineConfigs()) {
    EXPECT_EQ(EngineTuples(config, q, live), want) << config.name;
  }
}

// ---------------------------------------------------------------------------
// Reuse survival: plans revalidate, substrates rebuild once per version,
// caches evict narrowly.

QueryRequest Req(const std::string& text, const std::string& mode = "count",
                 const std::string& engine = "") {
  QueryRequest request;
  request.query_text = text;
  request.mode = mode;
  request.engine = engine;
  return request;
}

QueryRequest DeltaReq(const std::string& relation, std::vector<Tuple> adds,
                      std::vector<Tuple> deletes = {}) {
  QueryRequest request;
  request.kind = "delta";
  request.delta.relation = relation;
  request.delta.adds = std::move(adds);
  request.delta.deletes = std::move(deletes);
  return request;
}

constexpr const char* kTriangle = "E(x,y), E(y,z), E(z,x)";

TEST(DeltaReuse, PlanAndSubstrateSurviveASmallDelta) {
  Database db = testing::SmallSkewedDb(13);
  ServiceOptions options;
  options.workers = 1;
  QueryService service(&db, options);
  const std::uint64_t atoms =
      static_cast<std::uint64_t>(testing::Q(kTriangle).num_atoms());

  const QueryResponse cold = service.Execute(Req(kTriangle));
  ASSERT_EQ(cold.status, RunStatus::kOk);
  EXPECT_EQ(cold.stats.plan_cache_misses, 1u);
  // Atoms that project E the same way share one trie, so the cold request
  // builds each distinct view once.
  const std::uint64_t distinct_views = cold.stats.substrate_builds;
  ASSERT_GE(distinct_views, 1u);
  EXPECT_EQ(cold.stats.substrate_builds + cold.stats.substrate_reuses, atoms);

  const QueryResponse applied = service.Execute(DeltaReq("E", {{1, 999}}));
  ASSERT_EQ(applied.status, RunStatus::kOk);
  ASSERT_EQ(applied.count, 1u) << "the edge must be new";

  const std::uint64_t searches_before = PlannerSearchCount();
  const QueryResponse warm = service.Execute(Req(kTriangle));
  ASSERT_EQ(warm.status, RunStatus::kOk);
  EXPECT_EQ(warm.count, testing::ReferenceCount(testing::Q(kTriangle), db));
  // The delta must NOT tear down the reuse layer: the plan revalidates as a
  // hit (shape key + stats-drift recheck). The relation's version moved, so
  // each distinct view is rebuilt once from the new rows...
  EXPECT_EQ(PlannerSearchCount(), searches_before);
  EXPECT_EQ(warm.stats.plan_cache_hits, 1u);
  EXPECT_EQ(warm.stats.plan_cache_misses, 0u);
  EXPECT_EQ(warm.stats.substrate_builds, distinct_views);
  EXPECT_EQ(warm.stats.substrate_reuses, atoms - distinct_views);

  // ...and then shared by every read until the next delta.
  const QueryResponse again = service.Execute(Req(kTriangle));
  ASSERT_EQ(again.status, RunStatus::kOk);
  EXPECT_EQ(again.count, warm.count);
  EXPECT_EQ(again.stats.substrate_builds, 0u);
  EXPECT_EQ(again.stats.substrate_reuses, atoms);
}

TEST(DeltaReuse, TargetedInvalidationSparesUntouchedEntries) {
  // Two disjoint fan-outs: y=2 (reached from x=1) and y=6 (reached from
  // x=5) both complete non-empty subtrees, so each caches an entry under
  // its own adhesion key. A delta touching value 2 must spare key 6.
  Database db;
  db.Put(EdgeRelation("E", {{1, 2}, {2, 3}, {2, 4}, {5, 6}, {6, 7}}));
  db.Put(EdgeRelation("F", {{1, 1}}));

  CrossQueryReuse reuse(ReuseOptions{}, PlannerOptions{}, CacheOptions{},
                        /*stripes_hint=*/1);
  const Query q = testing::Q("E(x,y), E(y,z)");
  ExecStats stats;
  CrossQueryReuse::Prepared warm = reuse.Prepare(q, db, &stats);
  {
    EngineOptions options;
    options.prepared_plan = warm.plan;
    options.prepared_substrate = warm.substrate;
    options.shared_count_cache = &warm.caches->count;
    MakeEngine("CLFTJ", options)->Count(q, db, RunLimits{});
  }
  const auto caches = warm.caches;
  const std::size_t warm_entries = caches->count.size();
  ASSERT_GT(warm_entries, 0u) << "the path query must cache subtree counts";

  // Each Prepare below runs the invalidation pass for the new deltas but no
  // engine, so size() movements are eviction and nothing else.
  // A delta to a relation the query never mentions cannot touch any entry.
  ASSERT_TRUE(db.ApplyDelta({"F", {{2, 2}}, {}}));
  ASSERT_EQ(reuse.Prepare(q, db, &stats).caches.get(), caches.get())
      << "same shape caches instance";
  EXPECT_EQ(caches->count.size(), warm_entries);

  // A delta to E whose values miss every cached adhesion key evicts nothing
  // (per-dimension Bloom membership), yet the data really changed.
  ASSERT_TRUE(db.ApplyDelta({"E", {{40, 41}}, {}}));
  ASSERT_EQ(reuse.Prepare(q, db, &stats).caches.get(), caches.get());
  EXPECT_EQ(caches->count.size(), warm_entries);

  // A delta whose values include a cached adhesion key evicts the matching
  // entries — and only those; untouched keys survive.
  ASSERT_TRUE(db.ApplyDelta({"E", {}, {{2, 3}}}));
  ASSERT_EQ(reuse.Prepare(q, db, &stats).caches.get(), caches.get());
  EXPECT_LT(caches->count.size(), warm_entries);
  EXPECT_GT(caches->count.size(), 0u)
      << "eviction must be targeted, not a full flush";

  // Correctness across all of it: counts match a rebuilt database.
  std::vector<Edge> final_edges;
  for (const Tuple& t : VisibleTuples(db.Get("E"))) {
    final_edges.push_back({t[0], t[1]});
  }
  Database rebuilt;
  rebuilt.Put(EdgeRelation("E", final_edges));
  EXPECT_EQ(MakeEngine("CLFTJ", EngineOptions{})->Count(q, db, RunLimits{})
                .count,
            testing::ReferenceCount(q, rebuilt));
}

TEST(DeltaReuse, TouchingDeltaEvictsTheMatchingEntries) {
  // Tiny, fully-understood instance: E = {(1,2),(2,3)} under the path
  // query caches subtree counts keyed on the adhesion value y. Deleting
  // (2,3) changes the subtree under y=2 (and y=3's emptiness), so the
  // matching keys are evicted; adding a far-away edge first evicts nothing.
  Database db;
  db.Put(EdgeRelation("E", {{1, 2}, {2, 3}}));
  CrossQueryReuse reuse(ReuseOptions{}, PlannerOptions{}, CacheOptions{},
                        /*stripes_hint=*/1);
  const Query q = testing::Q("E(x,y), E(y,z)");
  ExecStats stats;
  CrossQueryReuse::Prepared prepared = reuse.Prepare(q, db, &stats);
  {
    EngineOptions options;
    options.prepared_plan = prepared.plan;
    options.prepared_substrate = prepared.substrate;
    options.shared_count_cache = &prepared.caches->count;
    MakeEngine("CLFTJ", options)->Count(q, db, RunLimits{});
  }
  const std::size_t warm_entries = prepared.caches->count.size();
  ASSERT_GT(warm_entries, 0u);

  ASSERT_TRUE(db.ApplyDelta({"E", {{50, 60}}, {}}));
  CrossQueryReuse::Prepared untouched = reuse.Prepare(q, db, &stats);
  ASSERT_EQ(untouched.caches.get(), prepared.caches.get());
  EXPECT_EQ(prepared.caches->count.size(), warm_entries)
      << "values 50/60 match no cached key: nothing to evict";

  ASSERT_TRUE(db.ApplyDelta({"E", {}, {{2, 3}}}));
  CrossQueryReuse::Prepared touched = reuse.Prepare(q, db, &stats);
  ASSERT_EQ(touched.caches.get(), prepared.caches.get());
  EXPECT_LT(prepared.caches->count.size(), warm_entries)
      << "the entry keyed by the changed adhesion value must go";
}

// Warms the persistent count cache of `q` once through `reuse`.
CrossQueryReuse::Prepared WarmCount(CrossQueryReuse& reuse, const Query& q,
                                    const Database& db) {
  ExecStats stats;
  CrossQueryReuse::Prepared prepared = reuse.Prepare(q, db, &stats);
  EngineOptions options;
  options.prepared_plan = prepared.plan;
  options.prepared_substrate = prepared.substrate;
  options.shared_count_cache = &prepared.caches->count;
  MakeEngine("CLFTJ", options)->Count(q, db, RunLimits{});
  return prepared;
}

TEST(DeltaReuse, CachesSurviveEveryDelta) {
  Database db;
  db.Put(EdgeRelation("E", {{1, 2}, {2, 3}, {5, 6}, {6, 7}}));
  CrossQueryReuse reuse(ReuseOptions{}, PlannerOptions{}, CacheOptions{},
                        /*stripes_hint=*/1);
  const Query q = testing::Q("E(x,y), E(y,z)");
  const CrossQueryReuse::Prepared prepared = WarmCount(reuse, q, db);
  const std::size_t warm_entries = prepared.caches->count.size();
  ASSERT_GT(warm_entries, 0u);

  // Every batch changes rows and bumps E's version; none of them may drop
  // the shape's tables. Batches far from every cached key evict nothing.
  ExecStats stats;
  for (Value k = 0; k < 4; ++k) {
    ASSERT_TRUE(db.ApplyDelta({"E", {{100 + 2 * k, 101 + 2 * k}}, {}}));
    ASSERT_EQ(reuse.Prepare(q, db, &stats).caches.get(),
              prepared.caches.get())
        << "same shape caches instance after delta " << k;
    EXPECT_EQ(prepared.caches->count.size(), warm_entries);
  }
  // A batch touching a cached key evicts the matching entries only.
  ASSERT_TRUE(db.ApplyDelta({"E", {}, {{2, 3}}}));
  ASSERT_EQ(reuse.Prepare(q, db, &stats).caches.get(), prepared.caches.get());
  EXPECT_LT(prepared.caches->count.size(), warm_entries);
  EXPECT_GT(prepared.caches->count.size(), 0u);

  const CrossQueryReuse::Prepared after = WarmCount(reuse, q, db);
  ASSERT_EQ(after.caches.get(), prepared.caches.get());
  Database rebuilt;
  rebuilt.Put(EdgeRelation(
      "E", {{1, 2}, {5, 6}, {6, 7}, {100, 101}, {102, 103}, {104, 105},
            {106, 107}}));
  EXPECT_EQ(MakeEngine("CLFTJ", EngineOptions{})->Count(q, db, RunLimits{})
                .count,
            testing::ReferenceCount(q, rebuilt));
}

TEST(DeltaReuse, ReappliedBatchEvictsNothing) {
  // An idempotent retry (docs/robustness.md) changes no row: it must keep
  // the tables, their entries and the tries warm.
  Database db = testing::SmallSkewedDb(5);
  CrossQueryReuse reuse(ReuseOptions{}, PlannerOptions{}, CacheOptions{},
                        /*stripes_hint=*/1);
  const Query q = CycleQuery(4);
  const DeltaBatch batch = {"E", {{1, 2}, {2, 1}}, {}};
  ASSERT_TRUE(db.ApplyDelta(batch));
  const CrossQueryReuse::Prepared prepared = WarmCount(reuse, q, db);
  const std::size_t warm_entries = prepared.caches->count.size();
  ASSERT_GT(warm_entries, 0u);

  DeltaResult result;
  ASSERT_TRUE(db.ApplyDelta(batch, nullptr, &result));
  EXPECT_EQ(result.applied_adds, 0u);
  ExecStats stats;
  const CrossQueryReuse::Prepared retried = reuse.Prepare(q, db, &stats);
  EXPECT_EQ(retried.caches.get(), prepared.caches.get());
  EXPECT_EQ(prepared.caches->count.size(), warm_entries);
  EXPECT_EQ(stats.substrate_builds, 0u) << "E's version did not move";
}

TEST(DeltaReuse, DriftedStatisticsReplanOnceWithFreshTables) {
  // A batch that more than doubles E, or empties it, moves E's cardinality
  // past the plan's 2x drift bound: the next request re-plans exactly once
  // and gets a new plan with new (empty) tables, since the old tables
  // belong to the old plan's NodeId keyspace. The request after it hits.
  const std::vector<Edge> edges = {{1, 2}, {2, 3}, {3, 4}, {4, 1}};
  for (const bool empty_it : {false, true}) {
    SCOPED_TRACE(empty_it ? "delete every edge" : "more than double E");
    Database db;
    db.Put(EdgeRelation("E", edges));
    CrossQueryReuse reuse(ReuseOptions{}, PlannerOptions{}, CacheOptions{},
                          /*stripes_hint=*/1);
    const Query q = CycleQuery(4);
    const CrossQueryReuse::Prepared warm = WarmCount(reuse, q, db);

    DeltaBatch batch;
    batch.relation = "E";
    if (empty_it) {
      for (const auto& [a, b] : edges) batch.deletes.push_back({a, b});
    } else {
      // A second 4-cycle, joined to the first: 4 -> 9 edges.
      batch.adds = {{5, 6}, {6, 7}, {7, 8}, {8, 5}, {1, 5}};
    }
    ASSERT_TRUE(db.ApplyDelta(batch));

    const std::uint64_t searches_before = PlannerSearchCount();
    ExecStats stats;
    const CrossQueryReuse::Prepared drifted = reuse.Prepare(q, db, &stats);
    EXPECT_EQ(PlannerSearchCount(), searches_before + 1);
    EXPECT_EQ(stats.plan_cache_misses, 1u);
    EXPECT_EQ(stats.plan_cache_hits, 0u);
    EXPECT_NE(drifted.plan.get(), warm.plan.get());
    ASSERT_NE(drifted.caches, nullptr);
    EXPECT_NE(drifted.caches.get(), warm.caches.get());

    std::vector<Edge> final_edges;
    for (const Tuple& t : VisibleTuples(db.Get("E"))) {
      final_edges.push_back({t[0], t[1]});
    }
    Database rebuilt;
    rebuilt.Put(EdgeRelation("E", final_edges));
    for (const std::string mode : {"count", "eval"}) {
      const Answer answer = RunWith(q, db, mode, &drifted);
      const Answer cold = RunWith(q, rebuilt, mode, nullptr);
      EXPECT_EQ(answer.count, cold.count) << mode;
      EXPECT_EQ(answer.stream, cold.stream) << mode;
    }

    ExecStats next;
    const CrossQueryReuse::Prepared after = reuse.Prepare(q, db, &next);
    EXPECT_EQ(next.plan_cache_hits, 1u);
    EXPECT_EQ(next.plan_cache_misses, 0u);
    EXPECT_EQ(after.plan.get(), drifted.plan.get());
    EXPECT_EQ(after.caches.get(), drifted.caches.get());
  }
}

TEST(DeltaReuse, FourCycleDeltaEvictsOnlyKeysAgreeingPerAtom) {
  // Each child atom of the 4-cycle binds one of the child's two adhesion
  // variables. A 1-edge delta must evict exactly the child entries whose
  // key agrees with the edge on a variable some participating atom binds,
  // at that atom's term position — and, up to Bloom false positives,
  // nothing else.
  Database db = testing::SmallSkewedDb(11);
  CrossQueryReuse reuse(ReuseOptions{}, PlannerOptions{}, CacheOptions{},
                        /*stripes_hint=*/1);
  const Query q = CycleQuery(4);
  const CrossQueryReuse::Prepared prepared = WarmCount(reuse, q, db);
  const CachedPlan& plan = *prepared.plan;

  // Per cacheable node: (adhesion index, term position) of every
  // participating atom's bound adhesion variables.
  using Binding = std::vector<std::pair<int, int>>;
  std::vector<std::vector<Binding>> atoms_at(plan.cacheable.size());
  for (NodeId n = 0; n < static_cast<NodeId>(plan.cacheable.size()); ++n) {
    if (!plan.cacheable[n]) continue;
    for (const Atom& atom : q.atoms()) {
      bool participates = false;
      for (const Term& term : atom.terms) {
        const int rank = plan.var_rank[term.var];
        participates = participates || (rank >= plan.first_depth[n] &&
                                         rank <= plan.subtree_last_depth[n]);
      }
      if (!participates) continue;
      Binding binding;
      const std::vector<VarId>& avars = plan.adhesion_vars[n];
      for (int i = 0; i < static_cast<int>(avars.size()); ++i) {
        for (int p = 0; p < static_cast<int>(atom.terms.size()); ++p) {
          if (atom.terms[p].var == avars[i]) {
            binding.push_back({i, p});
            break;
          }
        }
      }
      EXPECT_FALSE(binding.empty()) << "every 4-cycle atom binds one";
      EXPECT_LT(binding.size(), avars.size())
          << "no atom binds the whole adhesion: the per-atom case";
      atoms_at[n].push_back(binding);
    }
  }
  using Entry = std::pair<NodeId, Tuple>;
  const auto entries = [&prepared] {
    std::set<Entry> out;
    prepared.caches->count.ForEach(
        [&out](NodeId node, const Value* values, int dims, std::uint64_t) {
          out.insert({node, Tuple(values, values + dims)});
        });
    return out;
  };
  const std::set<Entry> warm = entries();
  ASSERT_GT(warm.size(), 100u);

  // Delete one edge from the middle of E's sorted rows.
  const Tuple edge = db.Get("E").TupleAt(db.Get("E").size() / 2);
  ASSERT_TRUE(db.ApplyDelta({"E", {}, {edge}}));
  ExecStats stats;
  ASSERT_EQ(reuse.Prepare(q, db, &stats).caches.get(), prepared.caches.get());
  const std::set<Entry> kept = entries();

  std::size_t must_go = 0;
  std::size_t may_stay = 0;
  std::size_t over_evicted = 0;
  for (const Entry& e : warm) {
    bool agrees = false;
    for (const Binding& binding : atoms_at[e.first]) {
      bool all = true;
      for (const auto& [dim, pos] : binding) {
        all = all && e.second[dim] == edge[pos];
      }
      agrees = agrees || all;
    }
    if (agrees) {
      ++must_go;
      EXPECT_EQ(kept.count(e), 0u) << "an agreeing entry survived";
    } else {
      ++may_stay;
      if (kept.count(e) == 0) ++over_evicted;
    }
  }
  EXPECT_GT(must_go, 0u) << "the edge must touch some cached key";
  EXPECT_GT(may_stay, 0u);
  EXPECT_LE(over_evicted * 100, may_stay) << "more than Bloom noise evicted";
  EXPECT_EQ(kept.size(), warm.size() - must_go - over_evicted);

  // The next answer through the surviving entries is right.
  const CrossQueryReuse::Prepared next = reuse.Prepare(q, db, &stats);
  EngineOptions options;
  options.prepared_plan = next.plan;
  options.prepared_substrate = next.substrate;
  options.shared_count_cache = &next.caches->count;
  EXPECT_EQ(MakeEngine("CLFTJ", options)->Count(q, db, RunLimits{}).count,
            MakeEngine("LFTJ")->Count(q, db, RunLimits{}).count);
}

// ---------------------------------------------------------------------------
// Service + protocol: writes and reads interleave.

TEST(ServiceDelta, ReadOnlyServiceRejectsDeltas) {
  const Database db = testing::SmallSkewedDb(13);
  QueryService service(db, ServiceOptions{});
  const QueryResponse response = service.Execute(DeltaReq("E", {{1, 2}}));
  EXPECT_EQ(response.status, RunStatus::kBadQuery);
}

TEST(ServiceDelta, DeltaChangesSubsequentResults) {
  Database db;
  db.Put(EdgeRelation("E", {{1, 2}, {2, 3}}));
  ServiceOptions options;
  options.workers = 1;
  QueryService service(&db, options);

  const QueryResponse before = service.Execute(Req(kTriangle));
  ASSERT_EQ(before.status, RunStatus::kOk);
  EXPECT_EQ(before.count, 0u);

  const QueryResponse applied = service.Execute(DeltaReq("E", {{3, 1}}));
  ASSERT_EQ(applied.status, RunStatus::kOk);
  EXPECT_EQ(applied.count, 1u);

  const QueryResponse after = service.Execute(Req(kTriangle));
  ASSERT_EQ(after.status, RunStatus::kOk);
  EXPECT_EQ(after.count, testing::ReferenceCount(testing::Q(kTriangle), db));
  EXPECT_GT(after.count, 0u);
}

TEST(ServiceDelta, BadDeltasAreTypedRejections) {
  Database db;
  db.Put(EdgeRelation("E", {{1, 2}}));
  QueryService service(&db, ServiceOptions{});
  const QueryResponse unknown = service.Execute(DeltaReq("nope", {{1, 2}}));
  EXPECT_EQ(unknown.status, RunStatus::kBadQuery);
  EXPECT_EQ(unknown.message, "unknown relation: nope");
  const QueryResponse wide = service.Execute(DeltaReq("E", {{1, 2, 3}}));
  EXPECT_EQ(wide.status, RunStatus::kBadQuery);
  EXPECT_EQ(wide.message, "arity mismatch for relation E");
  QueryRequest unknown_kind;
  unknown_kind.kind = "upsert";
  EXPECT_EQ(service.Execute(unknown_kind).status, RunStatus::kBadQuery);
}

TEST(ServiceDelta, ConcurrentWritersAndReadersStayConsistent) {
  Database db = testing::SmallSkewedDb(17);
  ServiceOptions options;
  options.workers = 4;
  options.queue_capacity = 256;
  QueryService service(&db, options);

  // Interleave counting readers with appending writers; every request must
  // complete kOk (readers see some consistent prefix of the writes), and
  // once all writes land the count equals the reference on the final data.
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 40; ++i) {
    if (i % 4 == 0) {
      const Value base = 1000 + 2 * i;
      futures.push_back(service.Submit(
          DeltaReq("E", {{base, base + 1}, {base + 1, base}})));
    } else {
      futures.push_back(service.Submit(Req(kTriangle)));
    }
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.get().status, RunStatus::kOk);
  }
  const QueryResponse final_count = service.Execute(Req(kTriangle));
  ASSERT_EQ(final_count.status, RunStatus::kOk);
  EXPECT_EQ(final_count.count,
            testing::ReferenceCount(testing::Q(kTriangle), db));
}

TEST(DeltaProtocol, RequestRoundTrips) {
  QueryRequest request = DeltaReq("E", {{1, 2}, {3, 4}}, {{5, 6}});
  const std::string line = FormatRequest(request);
  EXPECT_EQ(line, "DELTA relation=E add=1,2;3,4 del=5,6");

  QueryRequest parsed;
  std::string error;
  ASSERT_TRUE(ParseRequest(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.kind, "delta");
  EXPECT_EQ(parsed.delta.relation, "E");
  EXPECT_EQ(parsed.delta.adds, request.delta.adds);
  EXPECT_EQ(parsed.delta.deletes, request.delta.deletes);

  // Add-only and delete-only lines omit the empty token entirely.
  EXPECT_EQ(FormatRequest(DeltaReq("E", {{7, 8}})),
            "DELTA relation=E add=7,8");
  EXPECT_EQ(FormatRequest(DeltaReq("E", {}, {{7, 8}})),
            "DELTA relation=E del=7,8");
}

TEST(DeltaProtocol, MalformedLinesFailTyped) {
  QueryRequest parsed;
  std::string error;
  EXPECT_FALSE(ParseRequest("DELTA add=1,2", &parsed, &error));
  EXPECT_FALSE(ParseRequest("DELTA relation=E add=1,;2", &parsed, &error));
  EXPECT_FALSE(ParseRequest("DELTA relation=E add=1,2;;3,4", &parsed,
                            &error));
  EXPECT_FALSE(ParseRequest("DELTA relation=E add=a,b", &parsed, &error));
  EXPECT_FALSE(ParseRequest("DELTA relation=E frob=1", &parsed, &error));
  EXPECT_TRUE(ParseRequest("DELTA relation=E add=1,2", &parsed, &error))
      << error;
}

}  // namespace
}  // namespace clftj
