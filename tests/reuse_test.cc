// Cross-query reuse: canonical shape keys, the per-shape store of plans,
// substrates and persistent striped caches, the atom-view tries its shapes
// share, the serving loop, the ExecStats wire format, and warm-vs-cold
// result identity. The concurrent tests double as the TSan workload for the
// shared reuse structures.

#include <algorithm>
#include <future>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/reuse.h"
#include "query/shape.h"
#include "server/protocol.h"
#include "server/service.h"
#include "td/planner.h"
#include "test_util.h"
#include "util/stats.h"

namespace clftj {
namespace {

constexpr const char* kTriangle = "E(x,y), E(y,z), E(z,x)";
constexpr const char* kFourCycle = "E(x,y), E(y,z), E(z,w), E(w,x)";

TEST(ShapeKey, RenamedVariablesShareAKey) {
  EXPECT_EQ(CanonicalShapeKey(testing::Q(kTriangle)),
            CanonicalShapeKey(testing::Q("E(a,b), E(b,c), E(c,a)")));
  // Argument-flipped atoms are the same shape when the occurrence pattern
  // matches: E(y,x) canonicalizes to E(~0,~1) just like E(x,y).
  EXPECT_EQ(CanonicalShapeKey(testing::Q("E(x,y)")),
            CanonicalShapeKey(testing::Q("E(u,v)")));
}

TEST(ShapeKey, StructureAndConstantsDistinguish) {
  const std::string triangle = CanonicalShapeKey(testing::Q(kTriangle));
  EXPECT_NE(triangle, CanonicalShapeKey(testing::Q("E(x,y), E(y,z)")));
  EXPECT_NE(triangle, CanonicalShapeKey(testing::Q(kFourCycle)));
  EXPECT_NE(CanonicalShapeKey(testing::Q("E(x,5)")),
            CanonicalShapeKey(testing::Q("E(x,6)")));
  EXPECT_NE(CanonicalShapeKey(testing::Q("E(x,x)")),
            CanonicalShapeKey(testing::Q("E(x,y)")));
}

TEST(ShapeKey, NonIdentityNumberingGetsItsOwnKey) {
  // Parser-built queries register variables in first-occurrence order, so
  // they take the bare key. A hand-built query whose VarIds do not match
  // first-occurrence order must NOT share it: VarId-indexed plan arrays
  // would not transfer.
  Query hand;
  const VarId x = hand.AddVariable("x");  // id 0
  const VarId y = hand.AddVariable("y");  // id 1
  Atom atom;
  atom.relation = "E";
  atom.terms = {Term::Var(y), Term::Var(x)};  // first occurrence: y, x
  hand.AddAtom(atom);
  EXPECT_NE(CanonicalShapeKey(hand),
            CanonicalShapeKey(testing::Q("E(y,x)")));
}

// The plan half of CrossQueryReuse's shape store.
TEST(PlanCache, SecondResolveIsAHitWithNoPlannerSearch) {
  const Database db = testing::SmallSkewedDb(11);
  CrossQueryReuse reuse(ReuseOptions{}, PlannerOptions{}, CacheOptions{});
  ExecStats stats;
  const auto first = reuse.Prepare(testing::Q(kTriangle), db, &stats).plan;
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 0u);
  EXPECT_GT(stats.plan_resolve_ns, 0u);

  const std::uint64_t searches_before = PlannerSearchCount();
  // Renamed variables, same shape: must hit without re-planning.
  const auto second =
      reuse.Prepare(testing::Q("E(a,b), E(b,c), E(c,a)"), db, &stats).plan;
  EXPECT_EQ(PlannerSearchCount(), searches_before);
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(first.get(), second.get()) << "hit must share the one instance";
  EXPECT_EQ(reuse.NumShapes(), 1u);
}

TEST(PlanCache, CapacityEvictsLeastRecentlyUsed) {
  const Database db = testing::SmallSkewedDb(11);
  ReuseOptions options;
  options.plan_cache_capacity = 2;
  CrossQueryReuse reuse(options, PlannerOptions{}, CacheOptions{});
  ExecStats stats;
  reuse.Prepare(testing::Q("E(x,y)"), db, &stats);
  reuse.Prepare(testing::Q("E(x,y), E(y,z)"), db, &stats);
  reuse.Prepare(testing::Q(kTriangle), db, &stats);
  EXPECT_EQ(reuse.NumShapes(), 2u);
  // The single-edge shape was evicted: resolving it again is a miss.
  reuse.Prepare(testing::Q("E(x,y)"), db, &stats);
  EXPECT_EQ(stats.plan_cache_misses, 4u);
  EXPECT_EQ(stats.plan_cache_hits, 0u);
}

TEST(PlanCache, EntryPastMaxShapeCachesKeepsItsPlanButGetsFreshTables) {
  const Database db = testing::SmallSkewedDb(11);
  ReuseOptions options;
  options.max_shape_caches = 1;  // only the most recent shape keeps tables
  CrossQueryReuse reuse(options, PlannerOptions{}, CacheOptions{});
  const Query path = testing::Q("E(x,y), E(y,z)");
  ExecStats stats;
  const CrossQueryReuse::Prepared first = reuse.Prepare(path, db, &stats);
  EngineOptions engine_options;
  engine_options.prepared_plan = first.plan;
  engine_options.prepared_substrate = first.substrate;
  engine_options.shared_count_cache = &first.caches->count;
  const std::uint64_t want =
      MakeEngine("CLFTJ", engine_options)->Count(path, db, RunLimits{}).count;
  ASSERT_GT(first.caches->count.size(), 0u) << "the path caches subtrees";

  // A second shape takes the one table slot; the path keeps its plan.
  reuse.Prepare(testing::Q(kTriangle), db, &stats);
  EXPECT_EQ(reuse.NumShapes(), 2u);

  const std::uint64_t searches_before = PlannerSearchCount();
  ExecStats again;
  const CrossQueryReuse::Prepared second = reuse.Prepare(path, db, &again);
  EXPECT_EQ(PlannerSearchCount(), searches_before);
  EXPECT_EQ(again.plan_cache_hits, 1u);
  EXPECT_EQ(again.plan_cache_misses, 0u);
  EXPECT_EQ(second.plan.get(), first.plan.get());
  ASSERT_NE(second.caches, nullptr);
  EXPECT_NE(second.caches.get(), first.caches.get());
  EXPECT_EQ(second.caches->count.size(), 0u) << "fresh tables start empty";

  engine_options.prepared_substrate = second.substrate;
  engine_options.shared_count_cache = &second.caches->count;
  EXPECT_EQ(
      MakeEngine("CLFTJ", engine_options)->Count(path, db, RunLimits{}).count,
      want);
  // The path is the most recent shape again, so it keeps these tables.
  EXPECT_EQ(reuse.Prepare(path, db, &stats).caches.get(),
            second.caches.get());
}

// The substrate half of CrossQueryReuse's shape store, and the atom-view
// tries that every shape's substrate draws from.
constexpr const char* kTransitiveTriangle = "E(x,y), E(y,z), E(x,z)";

// The distinct trie instances behind a prepared substrate.
std::set<const Trie*> TriesOf(const CrossQueryReuse::Prepared& prepared) {
  std::set<const Trie*> tries;
  for (const AtomView& view : prepared.substrate->views()) {
    tries.insert(view.trie.get());
  }
  return tries;
}

TEST(SubstrateReuse, SecondPrepareBuildsNothingAndSharesTries) {
  const Database db = testing::SmallSkewedDb(11);
  const Query q = testing::Q(kTriangle);
  const std::uint64_t atoms = static_cast<std::uint64_t>(q.num_atoms());
  CrossQueryReuse reuse(ReuseOptions{}, PlannerOptions{}, CacheOptions{});

  ExecStats cold;
  const auto first = reuse.Prepare(q, db, &cold).substrate;
  EXPECT_GT(cold.substrate_builds, 0u);
  EXPECT_EQ(cold.substrate_builds + cold.substrate_reuses, atoms);
  EXPECT_GT(cold.substrate_build_ns, 0u);

  ExecStats warm;
  const auto second = reuse.Prepare(q, db, &warm).substrate;
  EXPECT_EQ(warm.substrate_builds, 0u);
  EXPECT_EQ(warm.substrate_reuses, atoms);
  EXPECT_EQ(warm.substrate_build_ns, 0u);
  for (int a = 0; a < q.num_atoms(); ++a) {
    EXPECT_EQ(first->views()[a].trie.get(), second->views()[a].trie.get())
        << "atom " << a << " must share one trie instance";
  }
}

TEST(SubstrateReuse, DataGenerationBumpDropsStaleTries) {
  Database db = testing::SmallSkewedDb(11);
  const Query q = testing::Q(kTriangle);
  CrossQueryReuse reuse(ReuseOptions{}, PlannerOptions{}, CacheOptions{});
  ExecStats cold;
  const CrossQueryReuse::Prepared before = reuse.Prepare(q, db, &cold);
  EXPECT_GT(cold.substrate_builds, 0u);

  db.Put(PreferentialAttachmentGraph("E", 40, 2, 99));  // bumps generation
  ExecStats after;
  const CrossQueryReuse::Prepared bumped = reuse.Prepare(q, db, &after);
  // Exactly a cold prepare again: the same builds as the first pass (any
  // reuses are intra-shape sharing between same-pattern atoms, never a
  // stale pre-bump trie).
  EXPECT_EQ(after.substrate_builds, cold.substrate_builds)
      << "stale tries must not serve the new data generation";
  EXPECT_EQ(after.substrate_reuses, cold.substrate_reuses);
  EXPECT_GT(after.substrate_build_ns, 0u);
  EXPECT_NE(bumped.substrate.get(), before.substrate.get());
  for (const Trie* trie : TriesOf(bumped)) {
    EXPECT_EQ(TriesOf(before).count(trie), 0u);
  }
}

TEST(SubstrateReuse, WarmPrepareReturnsTheSameSubstrate) {
  const Database db = testing::SmallSkewedDb(11);
  CrossQueryReuse reuse(ReuseOptions{}, PlannerOptions{}, CacheOptions{});
  ExecStats stats;
  const CrossQueryReuse::Prepared cold =
      reuse.Prepare(testing::Q(kFourCycle), db, &stats);
  ASSERT_NE(cold.substrate, nullptr);

  // Renamed variables, same shape: the shape hands back the substrate it
  // assembled, with every atom charged as a reuse.
  const Query renamed = testing::Q("E(a,b), E(b,c), E(c,d), E(d,a)");
  ExecStats warm;
  const CrossQueryReuse::Prepared again = reuse.Prepare(renamed, db, &warm);
  EXPECT_EQ(again.substrate.get(), cold.substrate.get());
  EXPECT_EQ(warm.substrate_builds, 0u);
  EXPECT_EQ(warm.substrate_reuses,
            static_cast<std::uint64_t>(renamed.num_atoms()));

  EngineOptions engine_options;
  engine_options.prepared_plan = again.plan;
  engine_options.prepared_substrate = again.substrate;
  EXPECT_EQ(
      MakeEngine("CLFTJ", engine_options)->Count(renamed, db, {}).count,
      testing::ReferenceCount(renamed, db));
}

TEST(SubstrateReuse, SecondShapeProjectingEAlikeBuildsNothing) {
  // Under any variable order the cyclic triangle has an edge whose first
  // term ranks first and one whose second term does, so it builds both
  // ways of projecting E; the transitive triangle can only need those two.
  const Database db = testing::SmallSkewedDb(11);
  CrossQueryReuse reuse(ReuseOptions{}, PlannerOptions{}, CacheOptions{});
  ExecStats cyclic_stats;
  const CrossQueryReuse::Prepared cyclic =
      reuse.Prepare(testing::Q(kTriangle), db, &cyclic_stats);
  EXPECT_EQ(cyclic_stats.substrate_builds, 2u);

  const Query q = testing::Q(kTransitiveTriangle);
  ExecStats stats;
  const CrossQueryReuse::Prepared transitive = reuse.Prepare(q, db, &stats);
  EXPECT_EQ(stats.plan_cache_misses, 1u) << "a shape of its own";
  EXPECT_EQ(stats.substrate_builds, 0u);
  EXPECT_EQ(stats.substrate_reuses, static_cast<std::uint64_t>(q.num_atoms()));
  EXPECT_NE(transitive.substrate.get(), cyclic.substrate.get());
  const std::set<const Trie*> shared = TriesOf(cyclic);
  for (const Trie* trie : TriesOf(transitive)) {
    EXPECT_EQ(shared.count(trie), 1u) << "must be one of the first shape's";
  }
}

TEST(SubstrateReuse, DeltaRebuildsEachChangedViewOnceAcrossShapes) {
  Database db = testing::SmallSkewedDb(11);
  db.Put(PreferentialAttachmentGraph("F", 30, 2, 5));
  CrossQueryReuse reuse(ReuseOptions{}, PlannerOptions{}, CacheOptions{});
  const Query cyclic_q = testing::Q(kTriangle);
  const Query transitive_q = testing::Q(kTransitiveTriangle);
  const Query f_path = testing::Q("F(x,y), F(y,z)");
  ExecStats stats;
  const CrossQueryReuse::Prepared cyclic = reuse.Prepare(cyclic_q, db, &stats);
  const CrossQueryReuse::Prepared transitive =
      reuse.Prepare(transitive_q, db, &stats);
  const CrossQueryReuse::Prepared path = reuse.Prepare(f_path, db, &stats);

  DeltaResult result;
  ASSERT_TRUE(db.ApplyDelta({"E", {{1, 999}}, {}}, nullptr, &result));
  ASSERT_EQ(result.applied_adds, 1u) << "the edge must be new";

  // E's version moved: the first shape after the delta rebuilds both of
  // E's views once...
  ExecStats cyclic_stats;
  const CrossQueryReuse::Prepared cyclic2 =
      reuse.Prepare(cyclic_q, db, &cyclic_stats);
  EXPECT_EQ(cyclic_stats.plan_cache_hits, 1u);
  EXPECT_EQ(cyclic_stats.substrate_builds, 2u);
  EXPECT_NE(cyclic2.substrate.get(), cyclic.substrate.get());
  for (const Trie* trie : TriesOf(cyclic2)) {
    EXPECT_EQ(TriesOf(cyclic).count(trie), 0u) << "built from the new rows";
  }
  EngineOptions engine_options;
  engine_options.prepared_plan = cyclic2.plan;
  engine_options.prepared_substrate = cyclic2.substrate;
  EXPECT_EQ(
      MakeEngine("CLFTJ", engine_options)->Count(cyclic_q, db, {}).count,
      testing::ReferenceCount(cyclic_q, db));

  // ...and the other shape over E shares those builds.
  ExecStats transitive_stats;
  const CrossQueryReuse::Prepared transitive2 =
      reuse.Prepare(transitive_q, db, &transitive_stats);
  EXPECT_EQ(transitive_stats.substrate_builds, 0u);
  EXPECT_NE(transitive2.substrate.get(), transitive.substrate.get());
  for (const Trie* trie : TriesOf(transitive2)) {
    EXPECT_EQ(TriesOf(cyclic2).count(trie), 1u);
  }

  // F did not change: its shape keeps its tries.
  ExecStats path_stats;
  const CrossQueryReuse::Prepared path2 = reuse.Prepare(f_path, db, &path_stats);
  EXPECT_EQ(path_stats.substrate_builds, 0u);
  EXPECT_EQ(TriesOf(path2), TriesOf(path));
}

TEST(ExecStatsWire, RoundTripsEveryCounter) {
  ExecStats stats;
  stats.memory_accesses = 1;
  stats.intermediate_tuples = 2;
  stats.output_tuples = 3;
  stats.cache_hits = 4;
  stats.cache_misses = 5;
  stats.cache_inserts = 6;
  stats.cache_rejects = 7;
  stats.cache_evictions = 8;
  stats.cache_entries_peak = 9;
  stats.cache_bytes_peak = 10;
  stats.plan_cache_hits = 11;
  stats.plan_cache_misses = 12;
  stats.substrate_builds = 13;
  stats.substrate_reuses = 14;
  stats.plan_resolve_ns = 15;
  stats.substrate_build_ns = 16;
  stats.batch_size = 17;
  stats.batch_shared_execs = 18;
  stats.batch_prefix_seeds = 19;

  ExecStats parsed;
  ASSERT_TRUE(ExecStats::FromWire(stats.ToWire(), &parsed));
  EXPECT_EQ(parsed.memory_accesses, 1u);
  EXPECT_EQ(parsed.intermediate_tuples, 2u);
  EXPECT_EQ(parsed.output_tuples, 3u);
  EXPECT_EQ(parsed.cache_hits, 4u);
  EXPECT_EQ(parsed.cache_misses, 5u);
  EXPECT_EQ(parsed.cache_inserts, 6u);
  EXPECT_EQ(parsed.cache_rejects, 7u);
  EXPECT_EQ(parsed.cache_evictions, 8u);
  EXPECT_EQ(parsed.cache_entries_peak, 9u);
  EXPECT_EQ(parsed.cache_bytes_peak, 10u);
  EXPECT_EQ(parsed.plan_cache_hits, 11u);
  EXPECT_EQ(parsed.plan_cache_misses, 12u);
  EXPECT_EQ(parsed.substrate_builds, 13u);
  EXPECT_EQ(parsed.substrate_reuses, 14u);
  EXPECT_EQ(parsed.plan_resolve_ns, 15u);
  EXPECT_EQ(parsed.substrate_build_ns, 16u);
  EXPECT_EQ(parsed.batch_size, 17u);
  EXPECT_EQ(parsed.batch_shared_execs, 18u);
  EXPECT_EQ(parsed.batch_prefix_seeds, 19u);

  // The wire token (perfbench parses its keys) and the ToString text
  // (clftj_cli --stats prints it) are pinned byte for byte.
  EXPECT_EQ(stats.ToWire(),
            "ma:1,it:2,ot:3,ch:4,cm:5,ci:6,cr:7,ce:8,cep:9,cbp:10,pch:11,"
            "pcm:12,sb:13,sr:14,prn:15,sbn:16,bsz:17,bse:18,bps:19");
  EXPECT_EQ(stats.ToString(),
            "mem_accesses=1 intermediates=2 outputs=3 cache_hits=4 "
            "cache_misses=5 cache_inserts=6 cache_rejects=7 "
            "cache_evictions=8 cache_peak=9 cache_bytes_peak=10 "
            "plan_cache_hits=11 plan_cache_misses=12 substrate_builds=13 "
            "substrate_reuses=14 plan_resolve_ns=15 substrate_build_ns=16 "
            "batch_size=17 batch_shared_execs=18 batch_prefix_seeds=19");

  // Merge sums every flow counter and takes the max of the two peaks: one
  // peak is lower in `more`, the other higher.
  ExecStats more;
  ASSERT_TRUE(ExecStats::FromWire(
      "ma:100,it:100,ot:100,ch:100,cm:100,ci:100,cr:100,ce:100,cep:3,"
      "cbp:110,pch:100,pcm:100,sb:100,sr:100,prn:100,sbn:100,bsz:100,"
      "bse:100,bps:100",
      &more));
  ExecStats merged = stats;
  merged.Merge(more);
  EXPECT_EQ(merged.ToWire(),
            "ma:101,it:102,ot:103,ch:104,cm:105,ci:106,cr:107,ce:108,cep:9,"
            "cbp:110,pch:111,pcm:112,sb:113,sr:114,prn:115,sbn:116,bsz:117,"
            "bse:118,bps:119");
}

TEST(ExecStatsWire, UnknownKeysIgnoredMalformedRejected) {
  ExecStats parsed;
  EXPECT_TRUE(ExecStats::FromWire("zz:5,ma:3", &parsed));
  EXPECT_EQ(parsed.memory_accesses, 3u);

  ExecStats untouched;
  untouched.memory_accesses = 42;
  EXPECT_FALSE(ExecStats::FromWire("ma:x", &untouched));
  EXPECT_FALSE(ExecStats::FromWire("garbage", &untouched));
  EXPECT_FALSE(ExecStats::FromWire("ma", &untouched));
  EXPECT_FALSE(ExecStats::FromWire("ma:-1", &untouched));
  EXPECT_FALSE(ExecStats::FromWire("ma:99999999999999999999", &untouched));
  EXPECT_EQ(untouched.memory_accesses, 42u) << "failure must not clobber";
}

// --- Serving-loop reuse -----------------------------------------------------

QueryRequest Req(const std::string& text, const std::string& mode,
                 const std::string& engine = "") {
  QueryRequest request;
  request.query_text = text;
  request.mode = mode;
  request.engine = engine;
  return request;
}

TEST(ServiceReuse, WarmAndColdAreBitIdenticalAcrossEnginesAndWorkers) {
  const Database db = testing::SmallSkewedDb(13);
  const std::uint64_t want_count =
      testing::ReferenceCount(testing::Q(kTriangle), db);
  const std::vector<Tuple> want_tuples =
      testing::ReferenceTuples(testing::Q(kTriangle), db);

  for (const int workers : {1, 2, 8}) {
    ServiceOptions warm_options;
    warm_options.workers = workers;
    QueryService warm(db, warm_options);

    ServiceOptions cold_options = warm_options;
    cold_options.reuse.enabled = false;
    QueryService cold(db, cold_options);

    for (const char* engine : {"CLFTJ", "CLFTJ-P", "LFTJ", "YTD",
                               "PairwiseHJ", "GenericJoin"}) {
      // Twice against the warm service: the second request runs fully warm
      // (plan, tries, persistent cache) and must not change a single tuple.
      for (int round = 0; round < 2; ++round) {
        QueryResponse count = warm.Execute(Req(kTriangle, "count", engine));
        ASSERT_EQ(count.status, RunStatus::kOk)
            << engine << " workers=" << workers;
        EXPECT_EQ(count.count, want_count)
            << engine << " workers=" << workers << " round=" << round;

        QueryResponse eval = warm.Execute(Req(kTriangle, "eval", engine));
        ASSERT_EQ(eval.status, RunStatus::kOk);
        std::sort(eval.tuples.begin(), eval.tuples.end());
        EXPECT_EQ(eval.tuples, want_tuples)
            << engine << " workers=" << workers << " round=" << round;
      }
      const QueryResponse cold_count =
          cold.Execute(Req(kTriangle, "count", engine));
      ASSERT_EQ(cold_count.status, RunStatus::kOk);
      EXPECT_EQ(cold_count.count, want_count);
    }
  }
}

TEST(ServiceReuse, CoreCountersMatchColdWhenPersistentCacheIsOff) {
  const Database db = testing::SmallSkewedDb(13);
  const Query q = testing::Q(kFourCycle);
  const RunResult c = MakeEngine("CLFTJ")->Count(q, db, RunLimits{});

  CrossQueryReuse reuse(ReuseOptions{}, PlannerOptions{}, CacheOptions{},
                        /*stripes_hint=*/1);
  reuse.Prepare(q, db, nullptr);  // warm the plan and the registry
  ExecStats reuse_stats;
  const CrossQueryReuse::Prepared prepared = reuse.Prepare(q, db, &reuse_stats);
  // Only the plan and the substrate are injected: the persistent tables
  // stay out, so the run caches in its own private table.
  EngineOptions options;
  options.prepared_plan = prepared.plan;
  options.prepared_substrate = prepared.substrate;
  RunResult w = MakeEngine("CLFTJ", options)->Count(q, db, RunLimits{});
  w.stats.Merge(reuse_stats);
  ASSERT_EQ(c.status, RunStatus::kOk);
  ASSERT_EQ(w.status, RunStatus::kOk);
  EXPECT_EQ(w.count, c.count);
  // Reuse changes where immutable inputs come from, never the traversal:
  // with the persistent cache off, every core counter must be identical.
  EXPECT_EQ(w.stats.memory_accesses, c.stats.memory_accesses);
  EXPECT_EQ(w.stats.intermediate_tuples, c.stats.intermediate_tuples);
  EXPECT_EQ(w.stats.output_tuples, c.stats.output_tuples);
  EXPECT_EQ(w.stats.cache_hits, c.stats.cache_hits);
  EXPECT_EQ(w.stats.cache_misses, c.stats.cache_misses);
  EXPECT_EQ(w.stats.cache_inserts, c.stats.cache_inserts);
  // ... while the reuse counters prove the warm path actually engaged.
  EXPECT_EQ(w.stats.plan_cache_hits, 1u);
  EXPECT_EQ(w.stats.substrate_builds, 0u);
}

TEST(ServiceReuse, SecondIdenticalRequestDoesNoPlanningOrTrieBuilds) {
  const Database db = testing::SmallSkewedDb(13);
  ServiceOptions options;
  options.workers = 1;
  QueryService service(db, options);

  const QueryResponse first = service.Execute(Req(kTriangle, "count"));
  ASSERT_EQ(first.status, RunStatus::kOk);
  EXPECT_EQ(first.stats.plan_cache_misses, 1u);
  EXPECT_EQ(first.stats.plan_cache_hits, 0u);
  EXPECT_GT(first.stats.substrate_builds, 0u);

  const std::uint64_t searches_before = PlannerSearchCount();
  const QueryResponse second = service.Execute(Req(kTriangle, "count"));
  ASSERT_EQ(second.status, RunStatus::kOk);
  EXPECT_EQ(second.count, first.count);
  EXPECT_EQ(PlannerSearchCount(), searches_before)
      << "warm request must not enumerate decompositions";
  EXPECT_EQ(second.stats.plan_cache_hits, 1u);
  EXPECT_EQ(second.stats.plan_cache_misses, 0u);
  EXPECT_EQ(second.stats.substrate_builds, 0u);
  EXPECT_EQ(second.stats.substrate_reuses,
            static_cast<std::uint64_t>(testing::Q(kTriangle).num_atoms()));
}

TEST(ServiceReuse, PersistentCacheWarmsAcrossRequests) {
  const Database db = testing::SmallSkewedDb(13);
  ServiceOptions options;
  options.workers = 1;
  QueryService service(db, options);

  // The 4-cycle decomposes with a nontrivial adhesion, so CLFTJ caches
  // subtree counts. The first request fills the shape's persistent striped
  // table; the second probes the very same keys, hits immediately, and
  // skips whole subtree scans: strictly fewer data touches on the warm run,
  // same count, and each response reports its own run's cache traffic.
  // workers=1 keeps both traversals deterministic.
  const QueryResponse first = service.Execute(Req(kFourCycle, "count"));
  ASSERT_EQ(first.status, RunStatus::kOk);
  EXPECT_GT(first.stats.cache_inserts, 0u);
  const QueryResponse second = service.Execute(Req(kFourCycle, "count"));
  ASSERT_EQ(second.status, RunStatus::kOk);
  EXPECT_EQ(second.count, first.count);
  EXPECT_LT(second.stats.memory_accesses, first.stats.memory_accesses)
      << "the warmed cache must cut the warm run's subtree scans";
  EXPECT_GT(second.stats.cache_hits, 0u);
  EXPECT_EQ(second.stats.cache_inserts, 0u);
}

TEST(ServiceReuse, WireCacheCountersSumToTheInjectedTables) {
  // Each run charges the hits (lock-free hot hits included), misses and
  // accepted inserts of an injected table to its own ExecStats, so the
  // ch/cm/ci fields of the responses, sent one at a time to one worker,
  // add up to the tables' own totals. Reuse is off so that the test's
  // tables are the ones injected; one shape per table keeps one plan's
  // NodeId keyspace in each.
  const Database db = testing::SmallSkewedDb(13);
  StripedCacheManager<std::uint64_t> count_table(CacheOptions{}, 1,
                                                 /*hot_reads=*/true);
  StripedCacheManager<FactorizedSetPtr> eval_table(CacheOptions{}, 1,
                                                   /*hot_reads=*/true);
  ServiceOptions options;
  options.workers = 1;
  options.reuse.enabled = false;
  options.engine_options.shared_count_cache = &count_table;
  options.engine_options.shared_eval_cache = &eval_table;
  QueryService service(db, options);

  ExecStats wire;
  for (int round = 0; round < 3; ++round) {
    for (const char* mode : {"count", "eval"}) {
      const QueryResponse response = service.Execute(Req(kFourCycle, mode));
      ASSERT_EQ(response.status, RunStatus::kOk) << mode;
      QueryResponse parsed;
      std::string error;
      ASSERT_TRUE(ParseResponse(FormatResponse(response), &parsed, &error))
          << error;
      wire.cache_hits += parsed.stats.cache_hits;
      wire.cache_misses += parsed.stats.cache_misses;
      wire.cache_inserts += parsed.stats.cache_inserts;
    }
  }
  const ExecStats count_stats = count_table.AggregatedStats();
  const ExecStats eval_stats = eval_table.AggregatedStats();
  const std::uint64_t hot = count_table.HotHits() + eval_table.HotHits();
  EXPECT_GT(hot, 0u) << "the warm rounds must take the hot path too";
  EXPECT_EQ(wire.cache_hits, count_stats.cache_hits + eval_stats.cache_hits +
                                 hot);
  EXPECT_EQ(wire.cache_misses,
            count_stats.cache_misses + eval_stats.cache_misses);
  EXPECT_EQ(wire.cache_inserts,
            count_stats.cache_inserts + eval_stats.cache_inserts);
  EXPECT_GT(wire.cache_inserts, 0u);
}

TEST(ServiceReuse, DataChangeInvalidatesEveryReuseLayer) {
  Database db = testing::SmallSkewedDb(13);
  ServiceOptions options;
  options.workers = 1;
  QueryService service(db, options);

  const QueryResponse before = service.Execute(Req(kTriangle, "count"));
  ASSERT_EQ(before.status, RunStatus::kOk);

  db.Put(PreferentialAttachmentGraph("E", 40, 2, 99));
  const std::uint64_t want =
      testing::ReferenceCount(testing::Q(kTriangle), db);
  const QueryResponse after = service.Execute(Req(kTriangle, "count"));
  ASSERT_EQ(after.status, RunStatus::kOk);
  EXPECT_EQ(after.count, want)
      << "stale plan/tries/cache must not survive a data change";
  EXPECT_EQ(after.stats.plan_cache_misses, 1u);
  EXPECT_GT(after.stats.substrate_builds, 0u);
}

TEST(ServiceReuse, ConcurrentWorkersShareSubstrateAndCacheSafely) {
  const Database db = testing::SmallSkewedDb(13);
  ServiceOptions options;
  options.workers = 8;
  options.queue_capacity = 256;
  QueryService service(db, options);

  const std::uint64_t want_triangle =
      testing::ReferenceCount(testing::Q(kTriangle), db);
  const std::uint64_t want_cycle =
      testing::ReferenceCount(testing::Q(kFourCycle), db);
  const std::vector<Tuple> want_tuples =
      testing::ReferenceTuples(testing::Q(kTriangle), db);

  // A burst of overlapping requests over two shapes: all 8 workers race on
  // the plan cache, the substrate registry and the persistent striped
  // tables at once (cold, so build/publish races are exercised too).
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 48; ++i) {
    switch (i % 3) {
      case 0:
        futures.push_back(service.Submit(Req(kTriangle, "count")));
        break;
      case 1:
        futures.push_back(service.Submit(Req(kFourCycle, "count", "CLFTJ-P")));
        break;
      default:
        futures.push_back(service.Submit(Req(kTriangle, "eval")));
        break;
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    QueryResponse response = futures[i].get();
    ASSERT_EQ(response.status, RunStatus::kOk) << "request " << i;
    switch (i % 3) {
      case 0:
        EXPECT_EQ(response.count, want_triangle) << "request " << i;
        break;
      case 1:
        EXPECT_EQ(response.count, want_cycle) << "request " << i;
        break;
      default: {
        std::sort(response.tuples.begin(), response.tuples.end());
        EXPECT_EQ(response.tuples, want_tuples) << "request " << i;
        break;
      }
    }
  }
}

}  // namespace
}  // namespace clftj
