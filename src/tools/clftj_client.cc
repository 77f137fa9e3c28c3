// clftj_client — send one query to a running clftj_server.
//
// Retries transport failures and retryable statuses (SHED, INTERNAL) with
// exponential backoff + deterministic jitter; terminal statuses (TIMEOUT,
// OUT-OF-MEMORY, BAD-QUERY, CANCELLED) are reported immediately.
//
// Exit codes mirror clftj_cli: 0 OK, 2 usage/BAD-QUERY, 3 TIMEOUT,
// 4 OUT-OF-MEMORY, 5 other failure (SHED/CANCELLED/INTERNAL after all
// retries), 6 transport failure.
//
// Usage:
//   clftj_client --socket /tmp/clftj.sock --query "E(x,y), E(y,z)"
//   clftj_client --socket /tmp/clftj.sock --query-file q.txt --mode eval
//                --timeout-ms 5000 --max-attempts 6

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "server/client.h"
#include "tools/flags.h"

namespace {

void Usage() {
  std::cerr <<
      "clftj_client — client for clftj_server's line protocol\n"
      "  --socket <path>        server socket path (required)\n"
      "  --query <text>         query, e.g. \"E(x,y), E(y,z)\"\n"
      "  --query-file <path>    read the query from a file\n"
      "  --batch <path>         pipeline one query per non-empty line of\n"
      "                         the file over a single connection (shares\n"
      "                         --mode/--engine/--timeout-ms/--max-tuples);\n"
      "                         co-arriving same-shape queries let the\n"
      "                         server batch them into one shared run\n"
      "  --append <R=tuples>    send a DELTA adding tuples to relation R\n"
      "                         (tuples \"1,2;3,4\"; no --query needed)\n"
      "  --delete <R=tuples>    send a DELTA removing tuples from R;\n"
      "                         combinable with --append on the same R\n"
      "  --mode <count|eval>    default count (eval prints tuples)\n"
      "  --engine <name>        engine override (server default otherwise)\n"
      "  --timeout-ms <n>       per-request deadline (server default: 0)\n"
      "  --max-tuples <n>       materialization budget\n"
      "  --max-attempts <n>     total tries incl. the first (default 4)\n"
      "  --initial-backoff-ms <n>  first retry backoff (default 20)\n"
      "  --max-backoff-ms <n>   backoff ceiling (default 2000)\n"
      "  --request-timeout-ms <n>  transport read deadline (default 30000)\n"
      "  --jitter-seed <n>      backoff jitter seed (default 1)\n"
      "Numeric flags take plain base-10 numbers; anything else is a usage\n"
      "error.\n"
      "Exit codes: 0 OK; 2 usage or BAD-QUERY; 3 TIMEOUT;\n"
      "            4 OUT-OF-MEMORY; 5 SHED/CANCELLED/INTERNAL after all\n"
      "            retries; 6 transport failure.\n";
}

int ExitCodeFor(clftj::RunStatus status) {
  switch (status) {
    case clftj::RunStatus::kOk:
      return 0;
    case clftj::RunStatus::kBadQuery:
      return 2;
    case clftj::RunStatus::kTimeout:
      return 3;
    case clftj::RunStatus::kOutOfMemory:
      return 4;
    default:
      return 5;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string batch_path;
  clftj::QueryRequest request;
  clftj::ClientOptions options;

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
    } else if (arg == "--query") {
      request.query_text = next();
    } else if (arg == "--query-file") {
      std::ifstream in(next());
      std::stringstream ss;
      ss << in.rdbuf();
      request.query_text = ss.str();
    } else if (arg == "--batch") {
      batch_path = next();
    } else if (arg == "--append" || arg == "--delete") {
      const std::string spec = next();
      std::string relation;
      std::vector<clftj::Tuple>* tuples =
          arg == "--append" ? &request.delta.adds : &request.delta.deletes;
      if (!clftj::ParseRelationTuples(spec, &relation, tuples)) {
        std::cerr << arg << " expects R=1,2;3,4, got: " << spec << "\n";
        return 2;
      }
      if (!request.delta.relation.empty() &&
          request.delta.relation != relation) {
        std::cerr << "one DELTA request targets one relation ("
                  << request.delta.relation << " vs " << relation << ")\n";
        return 2;
      }
      request.delta.relation = relation;
      request.kind = "delta";
    } else if (arg == "--mode") {
      request.mode = next();
    } else if (arg == "--engine") {
      request.engine = next();
    } else if (arg == "--timeout-ms") {
      clftj::ParseFlag(arg, next(), &request.timeout_ms);
    } else if (arg == "--max-tuples") {
      clftj::ParseFlag(arg, next(), &request.max_tuples);
    } else if (arg == "--max-attempts") {
      clftj::ParseFlag(arg, next(), &options.max_attempts);
    } else if (arg == "--initial-backoff-ms") {
      clftj::ParseFlag(arg, next(), &options.initial_backoff_ms);
    } else if (arg == "--max-backoff-ms") {
      clftj::ParseFlag(arg, next(), &options.max_backoff_ms);
    } else if (arg == "--request-timeout-ms") {
      clftj::ParseFlag(arg, next(), &options.request_timeout_ms);
    } else if (arg == "--jitter-seed") {
      clftj::ParseFlag(arg, next(), &options.jitter_seed);
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      Usage();
      return 2;
    }
  }

  if (socket_path.empty() ||
      (batch_path.empty() && request.kind == "run" &&
       request.query_text.empty())) {
    std::cerr << "--socket and a query (--query/--query-file), a batch file "
                 "(--batch) or a delta (--append/--delete) are required\n";
    Usage();
    return 2;
  }
  if (!batch_path.empty() &&
      (request.kind == "delta" || !request.query_text.empty())) {
    std::cerr << "--batch cannot be combined with --query or a delta\n";
    return 2;
  }
  if (request.kind == "delta" && !request.query_text.empty()) {
    std::cerr << "--query cannot be combined with --append/--delete\n";
    return 2;
  }
  // Strip a trailing newline from --query-file so the request stays one
  // protocol line.
  while (!request.query_text.empty() &&
         (request.query_text.back() == '\n' ||
          request.query_text.back() == '\r')) {
    request.query_text.pop_back();
  }

  clftj::QueryClient client(socket_path, options);

  if (!batch_path.empty()) {
    std::ifstream in(batch_path);
    if (!in) {
      std::cerr << "cannot read batch file: " << batch_path << "\n";
      return 2;
    }
    std::vector<clftj::QueryRequest> requests;
    std::string line;
    while (std::getline(in, line)) {
      while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
        line.pop_back();
      }
      if (line.empty()) continue;
      clftj::QueryRequest r = request;  // shared mode/engine/limit flags
      r.query_text = line;
      requests.push_back(std::move(r));
    }
    if (requests.empty()) {
      std::cerr << "batch file has no queries: " << batch_path << "\n";
      return 2;
    }
    const std::vector<clftj::ClientResult> results =
        client.RunBatch(requests);
    int exit_code = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const clftj::ClientResult& r = results[i];
      std::cout << "[" << i << "] ";
      if (!r.transport_ok) {
        std::cout << "TRANSPORT-FAILURE: " << r.transport_error << "\n";
        exit_code = std::max(exit_code, 6);
        continue;
      }
      const clftj::QueryResponse& response = r.response;
      std::cout << clftj::RunStatusName(response.status);
      if (response.status == clftj::RunStatus::kOk) {
        std::cout << " count=" << response.count
                  << " time=" << response.seconds << "s";
        if (response.stats.batch_size > 0) {
          std::cout << " batch=" << response.stats.batch_size;
        }
      } else if (!response.message.empty()) {
        std::cout << ": " << response.message;
      }
      std::cout << "\n";
      if (request.mode == "eval" &&
          response.status == clftj::RunStatus::kOk) {
        for (const clftj::Tuple& tuple : response.tuples) {
          for (std::size_t c = 0; c < tuple.size(); ++c) {
            std::cout << (c > 0 ? " " : "") << tuple[c];
          }
          std::cout << "\n";
        }
      }
      exit_code = std::max(exit_code, ExitCodeFor(response.status));
    }
    return exit_code;
  }

  const clftj::ClientResult result = client.Run(request);
  if (!result.transport_ok) {
    std::cerr << "transport failure after " << result.attempts
              << " attempt(s): " << result.transport_error << "\n";
    return 6;
  }
  const clftj::QueryResponse& response = result.response;
  if (response.status != clftj::RunStatus::kOk) {
    std::cerr << "error: " << clftj::RunStatusName(response.status)
              << (response.message.empty() ? "" : ": " + response.message)
              << " (after " << result.attempts << " attempt(s))\n";
    return ExitCodeFor(response.status);
  }
  if (request.kind == "delta") {
    // Deltas are set operations (no-op adds/deletes are skipped), so the
    // client's retry policy cannot double-apply one.
    std::cout << "applied: " << response.count << "\n";
  } else if (request.mode == "eval") {
    for (const clftj::Tuple& tuple : response.tuples) {
      for (std::size_t i = 0; i < tuple.size(); ++i) {
        std::cout << (i > 0 ? " " : "") << tuple[i];
      }
      std::cout << "\n";
    }
    std::cout << "tuples: " << response.count << "\n";
  } else {
    std::cout << "count: " << response.count << "\n";
  }
  std::cout << "time: " << response.seconds << "s  attempts: "
            << result.attempts << "\n";
  return 0;
}
