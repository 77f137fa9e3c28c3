// clftj_server — serve conjunctive queries over a local socket.
//
// Loads a dataset once, then answers line-protocol requests (see
// src/server/protocol.h) with a bounded queue, worker pool, per-request
// deadlines/budgets, and load shedding. Fault injection for chaos runs is
// armed via the CLFTJ_FAULTS environment variable (see src/util/fault.h).
//
// Usage:
//   clftj_server --socket /tmp/clftj.sock --dataset wiki-Vote
//   clftj_server --socket /tmp/clftj.sock --edges graph.txt --workers 4
//                --queue-capacity 128 --default-timeout-ms 5000

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "data/loader.h"
#include "data/snap_profiles.h"
#include "server/server.h"
#include "server/service.h"
#include "tools/flags.h"
#include "util/fault.h"
#include "util/simd.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

void Usage() {
  std::cerr <<
      "clftj_server — CLFTJ query service over a local socket\n"
      "  --socket <path>            AF_UNIX socket path (required; short)\n"
      "  --dataset <label>          synthetic profile (wiki-Vote, imdb, ...)\n"
      "  --edges <path>             load relation E from an edge list\n"
      "  --relation <name=path>     load any relation (repeatable)\n"
      "  --engine <name>            default engine (default CLFTJ)\n"
      "  --workers <n>              worker threads (default 2)\n"
      "  --queue-capacity <n>       bounded queue depth (default 64)\n"
      "  --aggregate-budget-bytes <n>  admission byte budget (default off)\n"
      "  --default-timeout-ms <n>   per-request deadline default\n"
      "  --default-max-tuples <n>   per-request materialization default\n"
      "  --retry-after-ms <n>       hint attached to SHED (default 50)\n"
      "Numeric flags take plain base-10 numbers; anything else is a usage\n"
      "error (exit 2).\n"
      "The service is read-write: DELTA requests (clftj_client --append/\n"
      "--delete) mutate the loaded data between queries.\n"
      "Faults: set CLFTJ_FAULTS=seed=...,cache_insert=...,deadline=...\n"
      "to arm deterministic fault injection for chaos testing.\n"
      "SIMD: set CLFTJ_SIMD=auto|avx2|scalar to pick the kernel dispatch\n"
      "arm (default auto; results and counters are identical either way).\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string dataset;
  std::string edges_path;
  std::vector<std::pair<std::string, std::string>> relation_specs;
  clftj::ServiceOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--dataset") {
      dataset = next();
    } else if (arg == "--edges") {
      edges_path = next();
    } else if (arg == "--relation") {
      const std::string spec = next();
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
        std::cerr << "--relation expects name=path, got: " << spec << "\n";
        return 2;
      }
      relation_specs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--engine") {
      options.engine = next();
    } else if (arg == "--workers") {
      clftj::ParseFlag(arg, next(), &options.workers);
    } else if (arg == "--queue-capacity") {
      clftj::ParseFlag(arg, next(), &options.queue_capacity);
    } else if (arg == "--aggregate-budget-bytes") {
      clftj::ParseFlag(arg, next(), &options.aggregate_budget_bytes);
    } else if (arg == "--default-timeout-ms") {
      clftj::ParseFlag(arg, next(), &options.default_timeout_ms);
    } else if (arg == "--default-max-tuples") {
      clftj::ParseFlag(arg, next(), &options.default_max_tuples);
    } else if (arg == "--retry-after-ms") {
      clftj::ParseFlag(arg, next(), &options.retry_after_ms);
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      Usage();
      return 2;
    }
  }

  if (socket_path.empty()) {
    std::cerr << "--socket is required\n";
    Usage();
    return 2;
  }

  clftj::Database db;
  if (!edges_path.empty() || !relation_specs.empty()) {
    if (!edges_path.empty()) relation_specs.emplace_back("E", edges_path);
    for (const auto& [name, path] : relation_specs) {
      clftj::LoadError err;
      auto rel = clftj::LoadRelationAuto(path, name, &db.dict(), &err);
      if (!rel.has_value()) {
        std::cerr << "failed to load " << name << ": " << err.ToString()
                  << "\n";
        return 2;
      }
      db.Put(std::move(*rel));
    }
  } else if (dataset == "imdb") {
    db = clftj::MakeImdbDatabase();
  } else if (!dataset.empty()) {
    db = clftj::MakeSnapDatabase(clftj::SnapProfileByLabel(dataset));
  } else {
    std::cerr << "a dataset is required (--dataset, --edges or --relation)\n";
    return 2;
  }

  if (clftj::fault::ConfigureFromEnv()) {
    std::cerr << "fault injection armed from CLFTJ_FAULTS\n";
  }

  // Kernel dispatch override for deployments: CLFTJ_SIMD=scalar pins the
  // reference arm (e.g. to rule the vector kernels out while debugging),
  // avx2 insists on it, auto (the default) probes the CPU.
  if (const char* simd_env = std::getenv("CLFTJ_SIMD")) {
    clftj::simd::Mode simd_mode;
    if (!clftj::simd::ParseMode(simd_env, &simd_mode)) {
      std::cerr << "unknown CLFTJ_SIMD mode: " << simd_env
                << " (expected auto, avx2 or scalar)\n";
      return 2;
    }
    if (!clftj::simd::SetMode(simd_mode)) {
      std::cerr << "CLFTJ_SIMD=avx2 requested but the AVX2 kernels are "
                   "unavailable here (" << clftj::simd::Describe() << ")\n";
      return 2;
    }
  }

  // Read-write service: the server owns its database, so DELTA requests
  // are accepted and interleave with queries under the service's data lock.
  clftj::QueryService service(&db, options);
  clftj::QueryServer server(&service);
  std::string error;
  if (!server.Start(socket_path, &error)) {
    std::cerr << "failed to start server on " << socket_path << ": " << error
              << "\n";
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::cerr << "serving on " << socket_path << " (engine " << options.engine
            << ", " << options.workers << " workers, simd "
            << clftj::simd::Describe() << "); SIGINT drains and exits\n";
  while (g_stop == 0) {
    pause();  // signal-driven; requests are handled on server threads
  }
  std::cerr << "draining...\n";
  server.Stop();
  service.Shutdown(/*drain=*/true);
  return 0;
}
