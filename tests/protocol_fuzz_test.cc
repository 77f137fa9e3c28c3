// Seeded mutation fuzzing of every parser on the input path: the wire
// parsers (RUN/DELTA request lines, response line sets, ExecStats wire
// tokens), the query parser and the relation file loaders. Valid inputs
// are mutated with byte flips, truncations and dropped or duplicated
// separators. Every parser must either accept a mutant or reject it with a
// diagnostic (never crash, hang or fail silently), and what parses must
// survive a round trip: a request through FormatRequest/ParseRequest
// unchanged, a query through ToString/ParseQuery to the same shape key.
// The seeds are fixed, so every run feeds the parsers the same inputs; the
// sanitizer jobs run this file with the rest of the suite.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "data/database.h"
#include "data/dictionary.h"
#include "data/loader.h"
#include "data/relation.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "query/shape.h"
#include "server/protocol.h"
#include "server/service.h"
#include "util/rng.h"
#include "util/stats.h"

namespace clftj {
namespace {

constexpr int kMutantsPerSeed = 10000;

// The separators of a wire line.
const char kWireSeparators[] = " =,;:";

// One to three stacked mutations of `text`: flip one bit of a byte,
// truncate at a random length, or drop or duplicate one of the characters
// in `separators`.
std::string Mutate(const std::string& text, Rng& rng,
                   const std::string& separators = kWireSeparators) {
  std::string out = text;
  const std::uint64_t steps = 1 + rng.Uniform(3);
  for (std::uint64_t step = 0; step < steps; ++step) {
    const std::uint64_t op = rng.Uniform(4);
    if (op == 0) {
      if (out.empty()) continue;
      out[rng.Uniform(out.size())] ^= static_cast<char>(1u << rng.Uniform(8));
    } else if (op == 1) {
      out.resize(rng.Uniform(out.size() + 1));
    } else {
      std::vector<std::size_t> at;
      for (std::size_t p = 0; p < out.size(); ++p) {
        if (separators.find(out[p]) != std::string::npos) at.push_back(p);
      }
      if (at.empty()) continue;
      const std::size_t p = at[rng.Uniform(at.size())];
      if (op == 2) {
        out.erase(p, 1);
      } else {
        out.insert(p, 1, out[p]);
      }
    }
  }
  return out;
}

bool SameRequest(const QueryRequest& a, const QueryRequest& b) {
  return a.kind == b.kind && a.query_text == b.query_text &&
         a.mode == b.mode && a.engine == b.engine &&
         a.timeout_ms == b.timeout_ms && a.max_tuples == b.max_tuples &&
         a.delta.relation == b.delta.relation && a.delta.adds == b.delta.adds &&
         a.delta.deletes == b.delta.deletes;
}

std::vector<std::string> ValidRequestLines() {
  std::vector<std::string> lines;
  QueryRequest run;
  run.query_text = "E(x,y), E(y,z), E(z,x)";
  lines.push_back(FormatRequest(run));
  run.mode = "eval";
  run.engine = "CLFTJ-P";
  run.timeout_ms = 1500;
  run.max_tuples = 77;
  run.query_text = "E(x,y), R(y, 5), E(y,z)";
  lines.push_back(FormatRequest(run));
  QueryRequest delta;
  delta.kind = "delta";
  delta.delta.relation = "E";
  delta.delta.adds = {{1, 2}, {3, 4}};
  delta.delta.deletes = {{5, 6}};
  lines.push_back(FormatRequest(delta));
  delta.delta.adds = {{-7, 18446744073}};
  delta.delta.deletes.clear();
  lines.push_back(FormatRequest(delta));
  delta.delta.relation = "R3";
  delta.delta.adds.clear();
  delta.delta.deletes = {{1, 2, 3}, {4, 5, 6}};
  lines.push_back(FormatRequest(delta));
  return lines;
}

std::vector<std::vector<std::string>> ValidResponses() {
  QueryResponse ok;
  ok.count = 3;
  ok.seconds = 0.125;
  ok.tuples = {{1, 2, 3}, {4, 5, 6}, {-7, 8, 9}};
  ok.stats.memory_accesses = 1234;
  ok.stats.cache_hits = 7;
  ok.stats.plan_cache_hits = 1;
  QueryResponse count_only;
  count_only.count = 42;
  count_only.seconds = 2.5e-05;
  QueryResponse shed;
  shed.status = RunStatus::kShed;
  shed.retry_after_ms = 50;
  shed.message = "request queue is full";
  QueryResponse bad;
  bad.status = RunStatus::kBadQuery;
  bad.message = "unknown relation: nope = gone, really; x:y";
  return {FormatResponse(ok), FormatResponse(count_only),
          FormatResponse(shed), FormatResponse(bad)};
}

std::vector<std::string> ValidStatsTokens() {
  ExecStats every;
  every.memory_accesses = 1;
  every.intermediate_tuples = 22;
  every.output_tuples = 333;
  every.cache_hits = 4444;
  every.cache_misses = 5;
  every.cache_inserts = 6;
  every.cache_rejects = 7;
  every.cache_evictions = 8;
  every.cache_entries_peak = 9;
  every.cache_bytes_peak = 10;
  every.plan_cache_hits = 11;
  every.plan_cache_misses = 12;
  every.substrate_builds = 13;
  every.substrate_reuses = 14;
  every.plan_resolve_ns = 15;
  every.substrate_build_ns = 16;
  every.batch_size = 17;
  every.batch_shared_execs = 18;
  every.batch_prefix_seeds = 18446744073709551615ull;
  return {every.ToWire(), ExecStats().ToWire(), "zz:5,ma:3"};
}

TEST(WireFuzz, MutatedRequestsParseOrFailWithAnErrorAndRoundTrip) {
  const std::vector<std::string> valid = ValidRequestLines();
  std::size_t parsed_mutants = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string line = Mutate(valid[rng.Uniform(valid.size())], rng);
      QueryRequest request;
      std::string error;
      if (!ParseRequest(line, &request, &error)) {
        EXPECT_FALSE(error.empty()) << "silent rejection of '" << line << "'";
        continue;
      }
      ++parsed_mutants;
      const std::string formatted = FormatRequest(request);
      QueryRequest again;
      ASSERT_TRUE(ParseRequest(formatted, &again, &error))
          << "'" << line << "' parsed, but its formatted line '" << formatted
          << "' does not: " << error;
      EXPECT_TRUE(SameRequest(request, again))
          << "'" << line << "' changed across '" << formatted << "'";
    }
  }
  // Some mutants (a flipped digit, a duplicated space) stay valid, so the
  // round trip above must actually have run.
  EXPECT_GT(parsed_mutants, 0u);
}

TEST(WireFuzz, MutatedResponsesParseOrFailWithAnError) {
  const std::vector<std::vector<std::string>> valid = ValidResponses();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(100 + seed);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      std::vector<std::string> lines = valid[rng.Uniform(valid.size())];
      if (rng.Uniform(4) == 0) {
        lines.resize(rng.Uniform(lines.size() + 1));  // lost lines
      } else {
        std::string& line = lines[rng.Uniform(lines.size())];
        line = Mutate(line, rng);
      }
      QueryResponse response;
      std::string error;
      if (!ParseResponse(lines, &response, &error)) {
        EXPECT_FALSE(error.empty())
            << "silent rejection of a " << lines.size() << "-line response";
      }
    }
  }
}

TEST(WireFuzz, MutatedStatsTokensParseOrLeaveTheTargetUntouched) {
  const std::vector<std::string> valid = ValidStatsTokens();
  ExecStats sentinel;
  sentinel.memory_accesses = 99;
  sentinel.cache_hits = 98;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(200 + seed);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string token = Mutate(valid[rng.Uniform(valid.size())], rng);
      ExecStats parsed = sentinel;
      if (!ExecStats::FromWire(token, &parsed)) {
        // FromWire has no error text: its failure contract is that the
        // target keeps every value it had.
        EXPECT_EQ(parsed.ToWire(), sentinel.ToWire())
            << "failed parse of '" << token << "' clobbered its target";
        continue;
      }
      ExecStats again;
      ASSERT_TRUE(ExecStats::FromWire(parsed.ToWire(), &again));
      EXPECT_EQ(again.ToWire(), parsed.ToWire()) << "'" << token << "'";
    }
  }
}

// Query texts of every family the workloads send: paths, cycles, a
// lollipop, and point queries with constants (up to the int64 limits).
std::vector<std::string> ValidQueryTexts() {
  return {
      "E(x,y), E(y,z), E(z,w)",
      "E(x1,x2), E(x2,x3), E(x3,x4), E(x4,x1)",
      "E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)",
      "E(x,y), E(y,z), E(z,x), E(x,w)",
      "E(x, 5), E(5, y), R(y, -9223372036854775808)",
      "R3(x, +17, y), E(y, x), R(9223372036854775807, x)",
  };
}

// A small database the validator checks mutants against: E and R binary,
// R3 ternary.
Database SmallFuzzDb() {
  Database db;
  const std::vector<std::pair<std::string, int>> schema = {
      {"E", 2}, {"R", 2}, {"R3", 3}};
  for (const auto& [name, arity] : schema) {
    Relation relation(name, arity);
    for (Value v = 0; v < 6; ++v) {
      Tuple row(static_cast<std::size_t>(arity));
      for (int c = 0; c < arity; ++c) row[c] = (v + c) % 6;
      relation.Add(row);
    }
    db.Put(std::move(relation));
  }
  return db;
}

TEST(QueryFuzz, MutatedQueriesParseOrFailWithAnErrorAndRoundTrip) {
  const std::vector<std::string> valid = ValidQueryTexts();
  const Database db = SmallFuzzDb();
  std::size_t parsed_mutants = 0;
  std::size_t valid_for_db = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(300 + seed);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string text =
          Mutate(valid[rng.Uniform(valid.size())], rng, " ,()");
      std::string error;
      const std::optional<Query> query = ParseQuery(text, &error);
      if (!query.has_value()) {
        EXPECT_FALSE(error.empty()) << "silent rejection of '" << text << "'";
        continue;
      }
      ++parsed_mutants;
      const std::string printed = query->ToString();
      const std::optional<Query> again = ParseQuery(printed, &error);
      ASSERT_TRUE(again.has_value())
          << "'" << text << "' parsed, but its rendering '" << printed
          << "' does not: " << error;
      EXPECT_EQ(CanonicalShapeKey(*again), CanonicalShapeKey(*query))
          << "'" << text << "' changed shape across '" << printed << "'";
      std::string message;
      const RunStatus status = ValidateQueryForDatabase(*query, db, &message);
      if (status == RunStatus::kOk) {
        ++valid_for_db;
      } else {
        EXPECT_FALSE(message.empty())
            << "silent " << RunStatusName(status) << " for '" << text << "'";
      }
    }
  }
  // A flipped digit or a duplicated space keeps a query valid, so both the
  // round trip and the accepting side of the validator must have run.
  EXPECT_GT(parsed_mutants, 0u);
  EXPECT_GT(valid_for_db, 0u);
}

// Writes `content` to `path`, replacing what was there.
void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

TEST(LoaderFuzz, MutatedFilesLoadOrFailWithAnError) {
  // An edge list with the SNAP comment conventions, a typed file with
  // quoted fields (separators, doubled quotes, a numeric-looking label) and
  // an integer file at the int64 limits.
  const std::vector<std::string> valid = {
      "# Directed graph\n# FromNodeId\tToNodeId\n"
      "1\t2\n2 3\n3,1\n% end\n\n4\t5\n",
      "alice\t1\t\"x, y\"\nbob\t2\t\"say \"\"hi\"\"\"\n\"2017\"\t-3\tz\n",
      "1 2 3\n4 5 6\n-9223372036854775808 8 9223372036854775807\n",
  };
  // Per process, so concurrent runs of the suite never share the file.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("clftj_loader_fuzz_" + std::to_string(getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "mutant.txt").string();
  std::size_t loaded_edges = 0;
  std::size_t loaded_auto = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(400 + seed);
    for (int i = 0; i < kMutantsPerSeed / 10; ++i) {
      const std::string content =
          Mutate(valid[rng.Uniform(valid.size())], rng, " ,\t\n\"#");
      WriteFile(path, content);

      LoadError edge_error;
      const std::optional<Relation> edges =
          LoadEdgeList(path, "E", &edge_error);
      if (edges.has_value()) {
        ++loaded_edges;
        EXPECT_EQ(edges->arity(), 2);
      } else {
        EXPECT_FALSE(edge_error.message.empty())
            << "silent edge-list rejection of:\n" << content;
      }

      Dictionary dict;
      LoadError auto_error;
      std::vector<ColumnType> schema;
      const std::optional<Relation> typed =
          LoadRelationAuto(path, "R", &dict, &auto_error, &schema);
      if (typed.has_value()) {
        ++loaded_auto;
        EXPECT_EQ(static_cast<int>(schema.size()), typed->arity());
        EXPECT_EQ(typed->column_types(), schema);
      } else {
        EXPECT_FALSE(auto_error.message.empty())
            << "silent auto-detected rejection of:\n" << content;
      }
    }
  }
  std::filesystem::remove_all(dir);
  EXPECT_GT(loaded_edges, 0u);
  EXPECT_GT(loaded_auto, 0u);
}

}  // namespace
}  // namespace clftj
