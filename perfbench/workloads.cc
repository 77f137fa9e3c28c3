// Seeded request schedules of the three serving workloads. Each workload
// draws its mix in blocks with a fixed composition, so the
// seed moves arrival times, order and shape choice but not the mix itself;
// that keeps run-to-run spread down without hiding the arrival bursts an
// open loop exists to produce.

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench.h"
#include "data/snap_profiles.h"
#include "query/parser.h"
#include "query/patterns.h"
#include "query/shape.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {

using clftj::Rng;

namespace {

/// Per-request engine budget: generous enough that no workload request
/// comes near it, tight enough that a hung run fails instead of stalling.
constexpr std::uint64_t kTimeoutMs = 30000;

QueryRequest Run(const std::string& text, const std::string& mode) {
  QueryRequest request;
  request.query_text = text;
  request.mode = mode;
  request.timeout_ms = kTimeoutMs;
  return request;
}

// Fisher-Yates with the bench's seeded generator.
template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (std::size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Uniform(i)]);
  }
}

// Poisson arrivals at `rate` over [0, seconds). Gaps are exponential,
// drawn stratified in blocks of ten (one draw from each tenth of the
// distribution, shuffled): bursts still come at random, but the number of
// arrivals in a window barely moves with the seed.
std::vector<double> PoissonArrivals(double rate, double seconds, Rng* rng) {
  constexpr int kStrata = 10;
  std::vector<double> due;
  std::vector<double> gaps;
  double t = 0.0;
  for (;;) {
    if (gaps.empty()) {
      for (int j = 0; j < kStrata; ++j) {
        const double u = (j + rng->UniformReal()) / kStrata;
        gaps.push_back(-std::log(1.0 - u) / rate);
      }
      Shuffle(&gaps, rng);
    }
    t += gaps.back();
    gaps.pop_back();
    if (t >= seconds) return due;
    due.push_back(t);
  }
}

// A slot shape that draws uniformly from FillOpenLoop's `short_shapes`.
constexpr int kShortGroup = -2;

// One slot of a mix block: a read of `shape` in `mode`, or a DELTA.
struct Slot {
  int shape = -1;
  std::string mode = "count";
  bool delta = false;
};

// Assigns a fresh mix block to every arrival and fills `w->stream`.
// `block` holds the slots; kShortGroup slots pick uniformly among
// `short_shapes`.
void FillOpenLoop(const std::vector<Slot>& block,
                  const std::vector<int>& short_shapes, double seconds,
                  Rng* rng, Workload* w) {
  const std::vector<double> due = PoissonArrivals(w->rate_rps, seconds, rng);
  std::vector<Slot> current;
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (current.empty()) {
      current = block;
      Shuffle(&current, rng);
    }
    Slot slot = current.back();
    current.pop_back();
    if (slot.shape == kShortGroup) {
      slot.shape = short_shapes[rng->Uniform(short_shapes.size())];
    }
    ScheduledRequest r;
    r.index = i;
    r.due_s = due[i];
    if (slot.delta) {
      r.delta_seq = w->deltas.size();
      r.connection = 0;  // one connection: the final state is order-fixed
      w->deltas.emplace_back();
      r.request.kind = "delta";
    } else {
      r.shape = slot.shape;
      r.request = Run(w->shapes[slot.shape], slot.mode);
    }
    w->stream.push_back(std::move(r));
  }
}

// Every shape once, count mode (plus the extra eval slots passed in).
void FillWarmup(const std::vector<std::pair<int, std::string>>& reads,
                Workload* w) {
  for (const auto& [shape, mode] : reads) {
    ScheduledRequest r;
    r.index = w->warmup.size();
    r.shape = shape;
    r.request = Run(w->shapes[shape], mode);
    w->warmup.push_back(std::move(r));
  }
}

void MakeWarmServe(std::uint64_t seed, double seconds, Workload* w) {
  w->open_loop = true;
  // About 16% busy for the default 2 workers on a 4-core Xeon at the seed
  // code's warm service times (see README.md). A cycle then rarely queues
  // behind another, so the p99 sits among cycles that ran at once instead
  // of on the edge between those and the few that waited, and a slower
  // host stretches latency in proportion instead of through the queue.
  w->rate_rps = 12.0;
  w->connections = 4;
  w->shapes = {clftj::PathQuery(4).ToString(),          // 0: 3-path
               clftj::PathQuery(5).ToString(),          // 1: 4-path
               clftj::LollipopQuery(3, 2).ToString(),   // 2: lollipop{3,2}
               clftj::CycleQuery(3).ToString(),         // 3: triangle
               clftj::CycleQuery(4).ToString(),         // 4: 4-cycle
               clftj::CycleQuery(5).ToString()};        // 5: 5-cycle
  // Blocks of twenty: 14 short shapes (~3 ms cache hits), one triangle
  // count (~13 ms, plain LFTJ: its TD has one bag), one triangle in eval
  // mode (~300 KB on the wire), two 4-cycles and two 5-cycles (~100 ms).
  // The median lands well inside the short shapes: inside the triangles
  // (when they were 40%), whose time depends on what runs beside them, it
  // moved by a third between runs of one seed.
  std::vector<Slot> block(14, Slot{kShortGroup, "count"});
  block.insert(block.end(), {{3, "count"},
                             {3, "eval"},
                             {4, "count"},
                             {4, "count"},
                             {5, "count"},
                             {5, "count"}});
  Rng rng(seed);
  FillOpenLoop(block, {0, 1, 2}, seconds, &rng, w);
  FillWarmup({{0, "count"}, {1, "count"}, {2, "count"}, {3, "count"},
              {4, "count"}, {5, "count"}, {3, "eval"}},
             w);
  w->replay_count = w->stream.size();
}

// RandomPatternQuery orients every atom from the lower to the higher
// variable; reversing each atom with probability 1/2 draws from all
// orientations of the pattern, which E (a directed graph) tells apart.
// Without it the 4-variable patterns run out of distinct shapes.
std::string RandomOrientation(const clftj::Query& q, Rng* rng) {
  std::string text;
  for (const clftj::Atom& atom : q.atoms()) {
    std::string a = q.var_name(atom.terms[0].var);
    std::string b = q.var_name(atom.terms[1].var);
    if (rng->Flip(0.5)) std::swap(a, b);
    text += (text.empty() ? "" : ", ") + atom.relation + "(" + a + "," + b + ")";
  }
  return text;
}

// True if the pattern's Gaifman graph is chordal (no chordless cycle of
// four or more variables): some variable's neighbours always form a clique
// and can be eliminated. Random patterns are kept only if chordal and with
// at most 2N-3 atoms. Chordless 4- and 5-cycles (warm-serve and write-mix
// carry them) and near-cliques (whose single-bag decomposition makes CLFTJ
// plain LFTJ) are the draws whose cold run takes 0.3-1.5 s on wiki-Vote;
// leaving them out keeps one unlucky draw from setting a whole run's tail.
bool IsChordal(const clftj::Query& q) {
  std::vector<std::vector<clftj::VarId>> adj = q.GaifmanGraph();
  const int n = q.num_vars();
  std::vector<bool> gone(n, false);
  for (int removed = 0; removed < n; ++removed) {
    int simplicial = -1;
    for (int v = 0; v < n && simplicial < 0; ++v) {
      if (gone[v]) continue;
      std::vector<clftj::VarId> live;
      for (const clftj::VarId u : adj[v]) {
        if (!gone[u]) live.push_back(u);
      }
      bool clique = true;
      for (std::size_t i = 0; i < live.size() && clique; ++i) {
        for (std::size_t j = i + 1; j < live.size() && clique; ++j) {
          clique = std::binary_search(adj[live[i]].begin(), adj[live[i]].end(),
                                      live[j]);
        }
      }
      if (clique) simplicial = v;
    }
    if (simplicial < 0) return false;
    gone[simplicial] = true;
  }
  return true;
}

// A query through the constant vertex v: triangle, 3-path or 4-cycle,
// each atom in a random orientation.
std::string PointQuery(int kind, clftj::Value v, Rng* rng) {
  const std::string c = std::to_string(v);
  std::vector<std::pair<std::string, std::string>> atoms;
  switch (kind) {
    case 0:
      atoms = {{c, "y"}, {"y", "z"}, {c, "z"}};
      break;
    case 1:
      atoms = {{c, "y"}, {"y", "z"}, {"z", "w"}};
      break;
    default:
      atoms = {{c, "y"}, {"y", "z"}, {"z", "w"}, {c, "w"}};
      break;
  }
  std::string text;
  for (auto& [a, b] : atoms) {
    if (rng->Flip(0.5)) std::swap(a, b);
    text += (text.empty() ? "" : ", ") + std::string("E(") + a + "," + b + ")";
  }
  return text;
}

void MakeAdhocCold(std::uint64_t seed, double seconds, const Database& db,
                   Workload* w) {
  w->open_loop = false;
  w->connections = 1;
  const clftj::Relation& edges = db.Get("E");
  std::vector<clftj::Value> sources;
  {
    const clftj::ColumnSpan column = edges.Column(0);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (sources.empty() || sources.back() != column[i]) {
        sources.push_back(column[i]);
      }
    }
  }
  // Blocks of ten: eight point queries (three triangles, three 3-paths and
  // two 4-cycles through a random vertex), one random 4-variable and one
  // random 5-variable pattern (6-variable ones are left out: some seeds
  // take seconds each). The median lands inside the point queries, whose
  // time is mostly planning; the tail is the random patterns. Any shape
  // already drawn is dropped by its canonical key, so the server never sees
  // a shape twice; should the 4-variable shapes run out, 5-variable ones
  // take their slots.
  Rng rng(seed);
  std::unordered_set<std::string> seen;
  std::vector<int> block;
  const auto next_text = [&]() {
    if (block.empty()) {
      block = {0, 0, 0, 1, 1, 1, 2, 2, 4, 5};
      Shuffle(&block, &rng);
    }
    int kind = block.back();
    block.pop_back();
    for (int attempt = 0;; ++attempt) {
      CLFTJ_CHECK_MSG(attempt < 100000, "adhoc-cold ran out of new shapes");
      if (kind == 4 && attempt >= 1000) kind = 5;
      std::string text;
      if (kind < 4) {
        text = PointQuery(kind, sources[rng.Uniform(sources.size())], &rng);
      } else {
        const double p = rng.Flip(0.5) ? 0.4 : 0.6;
        const clftj::Query pattern =
            clftj::RandomPatternQuery(kind, p, rng.Next());
        if (!IsChordal(pattern) || pattern.num_atoms() > 2 * kind - 3) {
          continue;
        }
        text = RandomOrientation(pattern, &rng);
      }
      const auto query = clftj::ParseQuery(text);
      if (query.has_value() &&
          seen.insert(clftj::CanonicalShapeKey(*query)).second) {
        return text;
      }
    }
  };
  // Closed loop: more requests than one client can finish in the window.
  const std::size_t stream_size = static_cast<std::size_t>(seconds * 200) + 50;
  // Set-up warms the code paths with fixed shapes (so set-up time does
  // not depend on the seed); the stream never repeats them.
  w->shapes = {clftj::PathQuery(4).ToString(), clftj::PathQuery(5).ToString(),
               clftj::CycleQuery(3).ToString(),
               clftj::LollipopQuery(3, 2).ToString()};
  for (const std::string& text : w->shapes) {
    seen.insert(clftj::CanonicalShapeKey(*clftj::ParseQuery(text)));
  }
  FillWarmup({{0, "count"}, {1, "count"}, {2, "count"}, {3, "count"}}, w);
  for (std::size_t i = 0; i < stream_size; ++i) {
    ScheduledRequest r;
    r.index = i;
    r.connection = 0;
    r.shape = static_cast<int>(w->shapes.size());
    w->shapes.push_back(next_text());
    r.request = Run(w->shapes.back(), "count");
    w->stream.push_back(std::move(r));
  }
  // A fixed prefix, so the replay's counters repeat exactly for one seed.
  w->replay_count =
      std::min(w->stream.size(), static_cast<std::size_t>(seconds * 16));
}

// Draws the DELTA batches of write-mix against a simulation of E: each
// batch deletes kDeltaSize visible edges and adds kDeltaSize new ones, so
// every tuple applies and E keeps its size.
void FillDeltas(const Database& db, Rng* rng, Workload* w) {
  constexpr std::size_t kDeltaSize = 100;
  const clftj::Relation& edges = db.Get("E");
  std::vector<std::pair<clftj::Value, clftj::Value>> live;
  live.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    live.emplace_back(edges.At(i, 0), edges.At(i, 1));
  }
  std::set<std::pair<clftj::Value, clftj::Value>> present(live.begin(),
                                                          live.end());
  for (clftj::DeltaBatch& batch : w->deltas) {
    batch.relation = "E";
    std::set<std::pair<clftj::Value, clftj::Value>> deleted;
    for (std::size_t k = 0; k < kDeltaSize; ++k) {
      const std::size_t at = rng->Uniform(live.size());
      batch.deletes.push_back({live[at].first, live[at].second});
      deleted.insert(live[at]);
      present.erase(live[at]);
      live[at] = live.back();
      live.pop_back();
    }
    // New edges between existing endpoints keep the degree skew.
    while (batch.adds.size() < kDeltaSize) {
      const clftj::Value u = live[rng->Uniform(live.size())].first;
      const clftj::Value v = live[rng->Uniform(live.size())].second;
      if (u == v || present.count({u, v}) > 0 || deleted.count({u, v}) > 0) {
        continue;
      }
      batch.adds.push_back({u, v});
      present.insert({u, v});
      live.emplace_back(u, v);
    }
  }
}

void MakeWriteMix(std::uint64_t seed, double seconds, const Database& db,
                  Workload* w) {
  w->open_loop = true;
  w->rate_rps = 14.0;
  w->connections = 4;
  w->read_write = true;
  w->shapes = {clftj::PathQuery(4).ToString(),   // 0: 3-path
               clftj::CycleQuery(4).ToString(),  // 1: 4-cycle
               clftj::CycleQuery(3).ToString(),  // 2: triangle
               clftj::PathQuery(5).ToString()};  // 3: 4-path
  // Blocks of twenty: two DELTAs and two 4-cycles (a 4-cycle after a
  // DELTA refills its evicted cache, ~0.4 s), six paths and ten triangle
  // counts. The read median stays inside the triangles even when a
  // DELTA's exclusive lock holds up the reads queued behind it, and the
  // refills are about a tenth of the requests, so the p95 falls inside
  // them rather than on their edge (with one DELTA per twenty, it did).
  Slot delta;
  delta.delta = true;
  std::vector<Slot> block = {delta, delta, {1, "count"}, {1, "count"}};
  for (int i = 0; i < 3; ++i) {
    block.push_back({0, "count"});
    block.push_back({3, "count"});
  }
  for (int i = 0; i < 10; ++i) block.push_back({2, "count"});
  Rng rng(seed);
  FillOpenLoop(block, {}, seconds, &rng, w);
  FillDeltas(db, &rng, w);
  for (ScheduledRequest& r : w->stream) {
    if (r.request.kind == "delta") r.request.delta = w->deltas[r.delta_seq];
  }
  FillWarmup({{0, "count"}, {1, "count"}, {2, "count"}, {3, "count"}}, w);
  w->replay_count = w->stream.size();
}

}  // namespace

Database MakeBenchDatabase() {
  return clftj::MakeSnapDatabase(clftj::SnapProfileByLabel("wiki-Vote"));
}

bool MakeWorkload(const std::string& name, std::uint64_t seed, double seconds,
                  const Database& db, Workload* out) {
  *out = Workload();
  out->name = name;
  if (name == "warm-serve") {
    MakeWarmServe(seed, seconds, out);
  } else if (name == "adhoc-cold") {
    MakeAdhocCold(seed, seconds, db, out);
  } else if (name == "write-mix") {
    MakeWriteMix(seed, seconds, db, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
