// Incremental maintenance end-to-end (docs/incremental.md): relation
// delta batches merged into the sorted columns, database minor versions and
// the bounded delta log, every engine over the post-delta data, reuse
// survival across deltas (plans revalidated, substrates rebuilt once per
// relation version and shared, subtree caches erased exactly where a
// changed tuple reaches), and DELTA through the service and wire protocol.
// The randomized differentials pin delta application against
// rebuild-from-scratch: bit-identical tuple sets for every engine and
// worker count, and bit-identical warm-cache answers across rounds of
// deltas.

#include <algorithm>
#include <cstdint>
#include <future>
#include <map>
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
// are partly or wholly no-ops; the last round lands one 20+20 batch, which
// changes many entries of every shape at once). After every round each
// warm answer must equal a cold run on a database rebuilt from the model —
// the same plan, no reused trie and no cached subtree result, the same
// (single) thread count — with an identical count and an identical tuple
// multiset. The stream is compared sorted: a cached eval subtree is
// expanded at the leaf, after the depths that follow it, so a warm run
// emits the same tuples as a cold one in a different order even when no
// delta ever lands.
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
  for (int round = 0; round < 7; ++round) {
    if (round > 0) {
      const int batches = round == 6 ? 1 : 1 + round % 2;
      const int size = round == 6 ? 20 : 3;
      for (int b = 0; b < batches; ++b) {
        DeltaBatch batch;
        batch.relation = "E";
        for (int i = 0; i < size; ++i) {
          batch.adds.push_back({value(rng), value(rng)});
        }
        std::uniform_int_distribution<std::size_t> pick(0, model.size() - 1);
        for (int i = 0; i < size; ++i) {
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
  // (no cached key is reachable from it), yet the data really changed.
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

// Brute-force joins over explicit tuple sets, independent of the engine:
// the reference for which cache entries a batch can change.
using TupleSet = std::set<Tuple>;

TupleSet Rows(const Relation& rel) {
  const std::vector<Tuple> rows = VisibleTuples(rel);
  return TupleSet(rows.begin(), rows.end());
}

// Calls fn() once per combination of one tuple per atom, atom i drawn from
// *sets[i], that agrees with `binding` (indexed by VarId; kNullValue =
// free) and with the tuples chosen before it; fn returns false to stop.
// Returns false iff stopped.
template <typename Fn>
bool ForEachMatch(const std::vector<const Atom*>& atoms,
                  const std::vector<const TupleSet*>& sets, std::size_t i,
                  Tuple* binding, const Fn& fn) {
  if (i == atoms.size()) return fn();
  const Atom& atom = *atoms[i];
  const Term& head = atom.terms[0];
  const Value first = head.is_variable ? (*binding)[head.var] : head.constant;
  auto it = first == kNullValue ? sets[i]->begin()
                                : sets[i]->lower_bound(Tuple{first});
  for (; it != sets[i]->end(); ++it) {
    const Tuple& t = *it;
    if (first != kNullValue && t[0] != first) break;
    std::vector<VarId> bound;
    bool agrees = true;
    for (std::size_t p = 0; p < atom.terms.size() && agrees; ++p) {
      const Term& term = atom.terms[p];
      if (!term.is_variable) {
        agrees = t[p] == term.constant;
      } else if ((*binding)[term.var] == kNullValue) {
        (*binding)[term.var] = t[p];
        bound.push_back(term.var);
      } else {
        agrees = (*binding)[term.var] == t[p];
      }
    }
    const bool go_on = !agrees || ForEachMatch(atoms, sets, i + 1, binding, fn);
    for (const VarId v : bound) (*binding)[v] = kNullValue;
    if (!go_on) return false;
  }
  return true;
}

// The atoms whose tuples node n's cache entries read: those with a
// variable at one of the subtree's depths.
std::vector<const Atom*> Participating(const CachedPlan& plan, NodeId n,
                                       const Query& q) {
  std::vector<const Atom*> out;
  for (const Atom& atom : q.atoms()) {
    for (const Term& term : atom.terms) {
      const int rank = plan.var_rank[term.var];
      if (rank >= plan.first_depth[n] && rank <= plan.subtree_last_depth[n]) {
        out.push_back(&atom);
        break;
      }
    }
  }
  return out;
}

// The value a cold run caches at node n under `key`: the assignments of
// the participating atoms over `data` that extend the key.
std::uint64_t ColdEntry(const CachedPlan& plan, NodeId n, const Query& q,
                        const Tuple& key, const TupleSet& data) {
  const std::vector<const Atom*> atoms = Participating(plan, n, q);
  Tuple binding(q.num_vars(), kNullValue);
  for (std::size_t i = 0; i < key.size(); ++i) {
    binding[plan.adhesion_vars[n][i]] = key[i];
  }
  std::uint64_t count = 0;
  ForEachMatch(atoms, std::vector<const TupleSet*>(atoms.size(), &data), 0,
               &binding, [&count] {
                 ++count;
                 return true;
               });
  return count;
}

// The keys of node n that an assignment reaches while it reads a `changed`
// tuple at one participating atom and, at every other, a tuple of `both`
// (the data after the batch together with the changed tuples). Stops past
// `cap` assignments; *assignments receives how many it saw.
std::set<Tuple> ReachableKeys(const CachedPlan& plan, NodeId n,
                              const Query& q, const TupleSet& changed,
                              const TupleSet& both, std::uint64_t cap,
                              std::uint64_t* assignments) {
  const std::vector<const Atom*> atoms = Participating(plan, n, q);
  std::set<Tuple> keys;
  *assignments = 0;
  for (std::size_t seed = 0; seed < atoms.size(); ++seed) {
    // The seed goes first, so every later atom is bound through it.
    std::vector<const Atom*> ordered = {atoms[seed]};
    std::vector<const TupleSet*> sets = {&changed};
    for (std::size_t a = 0; a < atoms.size(); ++a) {
      if (a == seed) continue;
      ordered.push_back(atoms[a]);
      sets.push_back(&both);
    }
    Tuple binding(q.num_vars(), kNullValue);
    const bool within = ForEachMatch(ordered, sets, 0, &binding, [&] {
      Tuple key;
      for (const VarId x : plan.adhesion_vars[n]) key.push_back(binding[x]);
      keys.insert(key);
      return ++*assignments <= cap;
    });
    if (!within) break;
  }
  return keys;
}

// The per-atom test: some participating atom's changed tuples carry, at
// every adhesion variable the atom binds, the key's value there.
bool PerAtomTestEvicts(const CachedPlan& plan, NodeId n, const Query& q,
                       const TupleSet& changed, const Tuple& key) {
  for (const Atom* atom : Participating(plan, n, q)) {
    bool passes = true;
    for (std::size_t d = 0; d < key.size() && passes; ++d) {
      for (std::size_t p = 0; p < atom->terms.size(); ++p) {
        if (atom->terms[p].var != plan.adhesion_vars[n][d]) continue;
        bool found = false;
        for (const Tuple& t : changed) found = found || t[p] == key[d];
        passes = found;
        break;
      }
    }
    if (passes) return true;
  }
  return false;
}

using Entry = std::pair<NodeId, Tuple>;

std::map<Entry, std::uint64_t> CountEntries(ShapeCaches& caches) {
  std::map<Entry, std::uint64_t> out;
  caches.count.ForEach([&out](NodeId node, const Value* values, int dims,
                              std::uint64_t value) {
    out[{node, Tuple(values, values + dims)}] = value;
  });
  return out;
}

// The count `q` answers through `reuse`'s warm tables right now.
std::uint64_t WarmCountNow(CrossQueryReuse& reuse, const Query& q,
                           const Database& db) {
  ExecStats stats;
  const CrossQueryReuse::Prepared next = reuse.Prepare(q, db, &stats);
  EngineOptions options;
  options.prepared_plan = next.plan;
  options.prepared_substrate = next.substrate;
  options.shared_count_cache = &next.caches->count;
  return MakeEngine("CLFTJ", options)->Count(q, db, RunLimits{}).count;
}

TEST(DeltaReuse, FourCycleBatchEvictsExactlyTheReachableKeys) {
  // A write-mix-shaped batch — 100 deletes of live edges and 100 adds of
  // new edges between existing endpoints — on a warm skewed 4-cycle. The
  // sweep must erase exactly the cached keys that the brute-force
  // reachability check finds: every entry whose value changed is among
  // them, every survivor equals a cold recompute of its key, and no entry
  // goes that the per-atom test would keep.
  Database db = testing::SmallSkewedDb(11, /*nodes=*/300,
                                       /*edges_per_node=*/4);
  CrossQueryReuse reuse(ReuseOptions{}, PlannerOptions{}, CacheOptions{},
                        /*stripes_hint=*/1);
  const Query q = CycleQuery(4);
  const CrossQueryReuse::Prepared prepared = WarmCount(reuse, q, db);
  const CachedPlan& plan = *prepared.plan;
  const std::map<Entry, std::uint64_t> warm = CountEntries(*prepared.caches);
  ASSERT_GT(warm.size(), 1000u);

  const TupleSet before = Rows(db.Get("E"));
  std::vector<Tuple> live(before.begin(), before.end());
  std::mt19937_64 rng(5);
  std::shuffle(live.begin(), live.end(), rng);
  DeltaBatch batch;
  batch.relation = "E";
  batch.deletes.assign(live.begin(), live.begin() + 100);
  TupleSet added;
  while (added.size() < 100) {
    const Value u = live[rng() % live.size()][0];
    const Value v = live[rng() % live.size()][1];
    if (u != v && before.count({u, v}) == 0) added.insert({u, v});
  }
  batch.adds.assign(added.begin(), added.end());
  ASSERT_TRUE(db.ApplyDelta(batch));
  ExecStats stats;
  ASSERT_EQ(reuse.Prepare(q, db, &stats).caches.get(), prepared.caches.get())
      << "the batch keeps E's size, so the plan and its tables stay";
  const std::map<Entry, std::uint64_t> kept = CountEntries(*prepared.caches);

  TupleSet changed(batch.deletes.begin(), batch.deletes.end());
  changed.insert(batch.adds.begin(), batch.adds.end());
  const TupleSet now = Rows(db.Get("E"));
  TupleSet both = now;
  both.insert(changed.begin(), changed.end());
  std::map<NodeId, std::set<Tuple>> reachable;
  for (NodeId n = 0; n < static_cast<NodeId>(plan.cacheable.size()); ++n) {
    if (!plan.cacheable[n]) continue;
    std::uint64_t assignments = 0;
    reachable[n] = ReachableKeys(plan, n, q, changed, both, warm.size(),
                                 &assignments);
    ASSERT_LE(assignments, warm.size()) << "within the exact rule's limit";
  }

  std::size_t evicted = 0;
  std::size_t value_changed = 0;
  std::size_t per_atom = 0;
  for (const auto& [entry, value] : warm) {
    const auto& [node, key] = entry;
    const bool gone = kept.count(entry) == 0;
    EXPECT_EQ(gone, reachable[node].count(key) > 0)
        << "node " << node << " key " << key[0] << "," << key[1];
    evicted += gone ? 1 : 0;
    if (ColdEntry(plan, node, q, key, now) != value) {
      ++value_changed;
      EXPECT_TRUE(gone) << "an entry whose value changed survived";
    }
    if (!gone) {
      EXPECT_EQ(kept.at(entry), ColdEntry(plan, node, q, key, now));
    }
    const bool predicted = PerAtomTestEvicts(plan, node, q, changed, key);
    per_atom += predicted ? 1 : 0;
    EXPECT_TRUE(!gone || predicted) << "the per-atom test keeps this entry";
  }
  EXPECT_GT(value_changed, 0u) << "the batch must change some entry";
  EXPECT_GE(evicted, value_changed);
  EXPECT_LT(evicted, per_atom) << "the exact rule must be the narrower one";
  EXPECT_EQ(WarmCountNow(reuse, q, db),
            MakeEngine("LFTJ")->Count(q, db, RunLimits{}).count);
}

TEST(DeltaReuse, DeletingTwoJoiningTuplesEvictsTheEntryTheyJoined) {
  // The 4-cycle (1,2,3,4) gives its child node one entry, under the
  // cycle's adhesion values, counting the single path through the two
  // tuples the child's atoms read. One batch deletes both: the entry's
  // value drops to 0, yet neither deleted tuple joins with a tuple of the
  // data after the batch. Only a join that reads the deleted tuples at the
  // other atoms reaches the entry.
  std::vector<Edge> edges = {{1, 2}, {2, 3}, {3, 4}, {1, 4}};
  for (Value v = 10; v < 26; ++v) edges.push_back({v, v + 1});
  Database db;
  db.Put(EdgeRelation("E", edges));
  CrossQueryReuse reuse(ReuseOptions{}, PlannerOptions{}, CacheOptions{},
                        /*stripes_hint=*/1);
  const Query q = CycleQuery(4);
  const CrossQueryReuse::Prepared prepared = WarmCount(reuse, q, db);
  const CachedPlan& plan = *prepared.plan;

  NodeId child = kNone;
  for (NodeId n = 0; n < static_cast<NodeId>(plan.cacheable.size()); ++n) {
    if (plan.cacheable[n]) child = n;
  }
  ASSERT_NE(child, kNone);
  const Tuple cycle = {1, 2, 3, 4};  // x1..x4
  Tuple key;
  for (const VarId x : plan.adhesion_vars[child]) key.push_back(cycle[x]);
  ASSERT_EQ(CountEntries(*prepared.caches).count({child, key}), 1u);

  DeltaBatch batch;
  batch.relation = "E";
  for (const Atom* atom : Participating(plan, child, q)) {
    batch.deletes.push_back(
        {cycle[atom->terms[0].var], cycle[atom->terms[1].var]});
  }
  ASSERT_EQ(batch.deletes.size(), 2u);
  ASSERT_TRUE(db.ApplyDelta(batch));
  ExecStats stats;
  ASSERT_EQ(reuse.Prepare(q, db, &stats).caches.get(), prepared.caches.get());
  EXPECT_EQ(CountEntries(*prepared.caches).count({child, key}), 0u)
      << "the entry both deleted tuples reach must go";
  EXPECT_EQ(WarmCountNow(reuse, q, db), 0u);
}

TEST(DeltaReuse, HubDeltaThatOutgrowsTheTableTakesThePerAtomTest) {
  // A skewed graph plus fresh in-neighbours of the hub vertex 500 and fresh
  // out-neighbours of 501, joined by the edge (500, 501). Deleting edges at
  // the hub reaches keys through its fan-outs, so some node's join produces
  // more assignments than the shape's table holds entries. That node takes
  // the per-atom test and evicts exactly what that test evicts — more than
  // the exact rule would — while every other node still takes the exact
  // rule. In the 5-cycle it is the middle node, which has a participating
  // atom that binds no adhesion variable, so the test evicts the whole
  // node. In the 4-cycle it is the child, whose atoms each bind one
  // adhesion variable, so the test compares values and keeps the keys that
  // hold no endpoint of a deleted edge. (The 4-cycle's batch deletes an
  // edge into 500 too: which one outgrows the table depends on the TD the
  // planner picks.)
  const struct {
    int length;
    Value in_fan;
    Value out_fan;
    std::vector<Tuple> deletes;
  } cases[] = {
      {5, 60, 60, {{500, 501}}},
      {4, 1000, 0, {{1000, 500}, {500, 501}}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.length == 5 ? "5-cycle" : "4-cycle");
    Relation edges = PreferentialAttachmentGraph("E", 40, 2, /*seed=*/3);
    edges.AddPair(500, 501);
    for (Value i = 0; i < c.in_fan; ++i) edges.AddPair(1000 + i, 500);
    for (Value i = 0; i < c.out_fan; ++i) edges.AddPair(501, 2000 + i);
    edges.Normalize();
    Database db;
    db.Put(std::move(edges));
    CrossQueryReuse reuse(ReuseOptions{}, PlannerOptions{}, CacheOptions{},
                          /*stripes_hint=*/1);
    const Query q = CycleQuery(c.length);
    const CrossQueryReuse::Prepared prepared = WarmCount(reuse, q, db);
    const CachedPlan& plan = *prepared.plan;
    const std::map<Entry, std::uint64_t> warm =
        CountEntries(*prepared.caches);
    const std::uint64_t limit =
        prepared.caches->count.size() + prepared.caches->eval.size();

    const TupleSet changed(c.deletes.begin(), c.deletes.end());
    const TupleSet both = Rows(db.Get("E"));  // the batch only deletes
    NodeId fallback = kNone;
    std::map<NodeId, std::set<Tuple>> reachable;
    for (NodeId n = 0; n < static_cast<NodeId>(plan.cacheable.size()); ++n) {
      if (!plan.cacheable[n]) continue;
      std::uint64_t assignments = 0;
      reachable[n] =
          ReachableKeys(plan, n, q, changed, both, limit, &assignments);
      if (assignments > limit) fallback = n;
    }
    ASSERT_NE(fallback, kNone) << "the hub's join must outgrow the table ("
                               << limit << " entries)";

    ASSERT_TRUE(db.ApplyDelta({"E", {}, c.deletes}));
    ExecStats stats;
    ASSERT_EQ(reuse.Prepare(q, db, &stats).caches.get(),
              prepared.caches.get());
    const std::map<Entry, std::uint64_t> kept =
        CountEntries(*prepared.caches);
    std::size_t evicted = 0;
    std::size_t survived = 0;
    std::size_t exact_would = 0;
    for (const auto& [entry, value] : warm) {
      const auto& [node, key] = entry;
      const bool gone = kept.count(entry) == 0;
      if (node == fallback) {
        EXPECT_EQ(gone, PerAtomTestEvicts(plan, node, q, changed, key));
        evicted += gone ? 1 : 0;
        survived += gone ? 0 : 1;
        exact_would += reachable[node].count(key);
      } else {
        EXPECT_EQ(gone, reachable[node].count(key) > 0);
      }
    }
    EXPECT_GT(evicted, exact_would) << "the node took the per-atom test";
    if (c.length == 4) {
      EXPECT_GT(survived, 0u) << "keys holding no endpoint stay";
    } else {
      EXPECT_EQ(survived, 0u) << "an atom binding no adhesion variable";
    }
    EXPECT_EQ(WarmCountNow(reuse, q, db),
              MakeEngine("LFTJ")->Count(q, db, RunLimits{}).count);
  }
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
  constexpr const char* kFourCycle = "E(x,y), E(y,z), E(z,w), E(w,x)";

  // Interleave counting readers — triangles, which cache nothing, and
  // 4-cycles, whose warm tables every delta sweeps — with writers that
  // delete real edges and add isolated ones. Every request must complete
  // kOk (readers see some consistent prefix of the writes), and once all
  // writes land both counts equal the reference on the final data. Each
  // batch deletes its own edges, so the final data does not depend on the
  // order the writes land in.
  const std::vector<Tuple> rows = VisibleTuples(db.Get("E"));
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 40; ++i) {
    if (i % 4 == 0) {
      const Value base = 1000 + 2 * i;
      const std::size_t at = static_cast<std::size_t>(i) * 3;
      futures.push_back(service.Submit(
          DeltaReq("E", {{base, base + 1}, {base + 1, base}},
                   {rows[at], rows[at + 1]})));
    } else {
      futures.push_back(service.Submit(Req(i % 2 == 0 ? kFourCycle
                                                      : kTriangle)));
    }
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.get().status, RunStatus::kOk);
  }
  ASSERT_EQ(db.Get("E").size(), rows.size())
      << "every batch deletes two live edges and adds two new ones";
  for (const char* text : {kTriangle, kFourCycle}) {
    const QueryResponse final_count = service.Execute(Req(text));
    ASSERT_EQ(final_count.status, RunStatus::kOk);
    EXPECT_EQ(final_count.count, testing::ReferenceCount(testing::Q(text), db))
        << text;
  }
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
