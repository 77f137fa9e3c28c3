// Dictionary-boundary benchmarks: (1) intern/decode throughput of the
// append-only string table the loader drives, and (2) the string-vs-int
// join parity record — a SNAP-sized synthetic text workload (the string
// twin of a profile graph) counted by CLFTJ next to its hand-remapped
// integer twin. The two runs execute over identical Value data, so every
// deterministic counter must agree *exactly*; main() enforces that after
// the runs and exits nonzero on divergence, which is what wires the
// "strings are free at join time" invariant into check.sh and the CI
// bench gate.
//
// Counters: encode/decode records define memory_accesses as the number of
// dictionary operations performed (a machine-independent workload size);
// the parity records carry the engines' real execution counters.

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "data/dictionary.h"
#include "data/generators.h"
#include "query/patterns.h"
#include "util/timer.h"

namespace clftj::bench {
namespace {

std::size_t NumLabels() { return Quick() ? 20'000 : 200'000; }

std::vector<std::string> Labels(std::size_t n) {
  std::vector<std::string> labels;
  labels.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels.push_back("user_" + std::to_string(i * 2654435761ull % (8 * n)));
  }
  return labels;
}

void PublishDict(benchmark::State& state, const std::string& name,
                 const std::string& config, double seconds,
                 std::uint64_t results, std::uint64_t operations) {
  RunResult r;
  r.count = results;
  r.seconds = seconds;
  r.stats.memory_accesses = operations;
  PublishResult(state, r, name, config);
}

// Cold: interning n labels (some duplicated by the hash wrap above) into a
// fresh dictionary. Hot: re-encoding all of them against the full table —
// the loader's steady state on skewed key columns.
void EncodeBody(benchmark::State& state, bool hot, const std::string& name) {
  const std::vector<std::string> labels = Labels(NumLabels());
  for (auto _ : state) {
    Dictionary dict;
    if (hot) {
      for (const auto& label : labels) dict.Encode(label);
    }
    std::uint64_t checksum = 0;
    Timer timer;
    for (const auto& label : labels) {
      checksum += static_cast<std::uint64_t>(dict.Encode(label));
    }
    const double seconds = timer.Seconds();
    benchmark::DoNotOptimize(checksum);
    PublishDict(state, name,
                std::string(hot ? "encode hot" : "encode cold") +
                    " n=" + std::to_string(labels.size()),
                seconds, dict.size(), labels.size());
  }
}

void DecodeBody(benchmark::State& state, const std::string& name) {
  const std::vector<std::string> labels = Labels(NumLabels());
  Dictionary dict;
  std::vector<Value> ids;
  ids.reserve(labels.size());
  for (const auto& label : labels) ids.push_back(dict.Encode(label));
  for (auto _ : state) {
    std::uint64_t checksum = 0;
    Timer timer;
    for (const Value id : ids) checksum += dict.Decode(id).size();
    const double seconds = timer.Seconds();
    benchmark::DoNotOptimize(checksum);
    PublishDict(state, name, "decode n=" + std::to_string(ids.size()),
                seconds, dict.size(), ids.size());
  }
}

// The string twin of a profile's edge relation and its hand-remapped
// integer twin, built once and shared by both parity records.
struct TwinDbs {
  Database strings;
  Database ints;
};

const TwinDbs& Twins(const std::string& profile) {
  static std::map<std::string, TwinDbs>& cache =
      *new std::map<std::string, TwinDbs>();
  auto it = cache.find(profile);
  if (it == cache.end()) {
    it = cache.emplace(profile, TwinDbs{}).first;
    TwinDbs& twins = it->second;
    const Relation& base = SnapDb(profile).Get("E");
    twins.strings.Put(StringKeyed(base, "v", &twins.strings.dict()));
    const Dictionary& dict = twins.strings.dict();
    std::vector<std::vector<Value>> columns(2);
    for (int c = 0; c < 2; ++c) {
      const ColumnSpan span = base.Column(c);
      columns[c].reserve(span.size());
      for (const Value v : span) {
        columns[c].push_back(*dict.Lookup("v" + std::to_string(v)));
      }
    }
    twins.ints.Put(Relation::FromColumns("E", std::move(columns)));
  }
  return it->second;
}

void ParityBody(benchmark::State& state, const std::string& profile, int k,
                bool strings, const std::string& name) {
  const TwinDbs& twins = Twins(profile);
  const Query q = CycleQuery(k);
  auto engine = MakeEngine("CLFTJ");
  CountOnce(state, *engine, q, strings ? twins.strings : twins.ints, name,
            strings ? "string-keyed CLFTJ" : "remapped-int CLFTJ");
}

void RegisterAll() {
  const auto reg = [](const std::string& name, auto&& body) {
    benchmark::RegisterBenchmark(
        name.c_str(),
        [name, body](benchmark::State& state) { body(state, name); })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  };
  const std::string n = std::to_string(NumLabels());
  reg("Dict/encode-cold/n=" + n,
      [](benchmark::State& s, const std::string& name) {
        EncodeBody(s, /*hot=*/false, name);
      });
  reg("Dict/encode-hot/n=" + n,
      [](benchmark::State& s, const std::string& name) {
        EncodeBody(s, /*hot=*/true, name);
      });
  reg("Dict/decode/n=" + n, [](benchmark::State& s, const std::string& name) {
    DecodeBody(s, name);
  });

  const int k = Quick() ? 4 : 5;
  const std::string cycle = std::to_string(k) + "-cycle";
  for (const bool strings : {true, false}) {
    const std::string name = "Dict/wiki-Vote/" + cycle + "/CLFTJ-" +
                             (strings ? std::string("string")
                                      : std::string("int"));
    benchmark::RegisterBenchmark(
        name.c_str(),
        [name, strings, k](benchmark::State& state) {
          ParityBody(state, "wiki-Vote", k, strings, name);
        })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
}

// Cross-checks the recorded parity pair: the string-keyed and
// remapped-int runs must report identical counts and memory accesses.
// Returns nonzero (and says why) on divergence.
int Gate() {
  const JsonRecord* string_rec = nullptr;
  const JsonRecord* int_rec = nullptr;
  for (const JsonRecord& rec : JsonLog()) {
    if (rec.name.find("/CLFTJ-string") != std::string::npos) {
      string_rec = &rec;
    }
    if (rec.name.find("/CLFTJ-int") != std::string::npos) int_rec = &rec;
  }
  if (string_rec == nullptr || int_rec == nullptr) return 0;  // filtered
  if (string_rec->result.status == RunStatus::kTimeout ||
      int_rec->result.status == RunStatus::kTimeout) {
    return 0;
  }
  if (string_rec->result.count != int_rec->result.count ||
      string_rec->result.stats.memory_accesses !=
          int_rec->result.stats.memory_accesses) {
    return GateFail(
        "bench_dict: PARITY VIOLATION — string-keyed vs remapped-int runs "
        "diverged: count %llu vs %llu, memory_accesses %llu vs %llu\n",
        static_cast<unsigned long long>(string_rec->result.count),
        static_cast<unsigned long long>(int_rec->result.count),
        static_cast<unsigned long long>(
            string_rec->result.stats.memory_accesses),
        static_cast<unsigned long long>(
            int_rec->result.stats.memory_accesses));
  }
  return 0;
}

}  // namespace
}  // namespace clftj::bench

int main(int argc, char** argv) {
  return clftj::bench::GatedBenchMain(argc, argv, clftj::bench::RegisterAll,
                                      clftj::bench::Gate);
}
