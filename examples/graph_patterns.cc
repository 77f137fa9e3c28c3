// Graph-pattern mining across engines — the workload that motivates the
// paper's introduction: counting paths, cycles and small patterns over
// social-network-shaped graphs, where vanilla worst-case-optimal joins
// recompute the same subtrees over and over.
//
//   $ ./graph_patterns [dataset-label]      (default: wiki-Vote)
//
// Prints a table of count-query runtimes for every engine in the registry,
// with a per-run timeout so the slow ones report TIMEOUT instead of
// hanging — the same protocol as the paper's figures.

#include <cstdio>
#include <string>
#include <vector>

#include "data/snap_profiles.h"
#include "engine/engine.h"
#include "query/patterns.h"

int main(int argc, char** argv) {
  const std::string label = argc > 1 ? argv[1] : "wiki-Vote";
  const clftj::Database db =
      clftj::MakeSnapDatabase(clftj::SnapProfileByLabel(label));
  std::printf("dataset %s: %zu directed edges\n\n", label.c_str(),
              db.Get("E").size());

  struct Workload {
    std::string name;
    clftj::Query query;
  };
  const std::vector<Workload> workloads = {
      {"4-path", clftj::PathQuery(4)},
      {"5-path", clftj::PathQuery(5)},
      {"4-cycle", clftj::CycleQuery(4)},
      {"5-cycle", clftj::CycleQuery(5)},
      {"3-clique", clftj::CliqueQuery(3)},
      {"5-rand(0.5)", clftj::RandomPatternQuery(5, 0.5, 11)},
  };
  const std::vector<std::string> engines = {"LFTJ", "CLFTJ", "YTD",
                                            "PairwiseHJ", "GenericJoin"};

  clftj::RunLimits limits;
  limits.timeout_seconds = 5.0;
  limits.max_intermediate_tuples = 20'000'000;

  std::printf("%-14s", "query");
  for (const auto& e : engines) std::printf(" %14s", e.c_str());
  std::printf("\n");
  for (const Workload& w : workloads) {
    std::printf("%-14s", w.name.c_str());
    std::uint64_t expected = 0;
    bool have_expected = false;
    for (const std::string& name : engines) {
      const auto engine = clftj::MakeEngine(name);
      const clftj::RunResult r = engine->Count(w.query, db, limits);
      if (r.status == clftj::RunStatus::kTimeout) {
        std::printf(" %14s", "TIMEOUT");
      } else if (r.status == clftj::RunStatus::kOutOfMemory) {
        std::printf(" %14s", "OOM");
      } else {
        std::printf(" %12.3fms", r.seconds * 1e3);
        if (!have_expected) {
          expected = r.count;
          have_expected = true;
        } else if (r.count != expected) {
          std::printf("(!)");
        }
      }
    }
    std::printf("\n");
  }
  std::printf("\nAll successful engines agreed on every count "
              "(a '(!)' marker would flag a mismatch).\n");
  return 0;
}
