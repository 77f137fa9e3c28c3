#include "server/protocol.h"

#include <sstream>
#include <string_view>

#include "util/parse.h"

namespace clftj {

namespace {

bool Fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

// Splits "key=value" at the first '='.
bool SplitKeyValue(const std::string& token, std::string* key,
                   std::string* value) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

// DELTA tuple lists: values ','-separated within a tuple, tuples
// ';'-separated ("1,2;3,4"). Empty lists format to "" (the token is
// omitted entirely).
std::string FormatTuples(const std::vector<Tuple>& tuples) {
  std::ostringstream out;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    if (i > 0) out << ';';
    for (std::size_t j = 0; j < tuples[i].size(); ++j) {
      if (j > 0) out << ',';
      out << tuples[i][j];
    }
  }
  return out.str();
}

}  // namespace

bool ParseTuples(const std::string& text, std::vector<Tuple>* out) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(';', start);
    if (end == std::string::npos) end = text.size();
    Tuple tuple;
    std::size_t vstart = start;
    for (;;) {
      std::size_t vend = text.find(',', vstart);
      if (vend == std::string::npos || vend > end) vend = end;
      // Empty fields are corruption: "1,,2", "1,", ",1", ";;" and "".
      if (vend == vstart) return false;
      Value value = 0;
      if (!ParseNumber(std::string_view(text).substr(vstart, vend - vstart),
                       &value)) {
        return false;
      }
      tuple.push_back(value);
      if (vend == end) break;
      vstart = vend + 1;
      if (vstart == end) return false;  // trailing ','
    }
    out->push_back(std::move(tuple));
    if (end == text.size()) break;
    start = end + 1;
  }
  return true;
}

std::string FormatRequest(const QueryRequest& request) {
  std::ostringstream out;
  if (request.kind == "delta") {
    out << "DELTA relation=" << request.delta.relation;
    if (!request.delta.adds.empty()) {
      out << " add=" << FormatTuples(request.delta.adds);
    }
    if (!request.delta.deletes.empty()) {
      out << " del=" << FormatTuples(request.delta.deletes);
    }
    return out.str();
  }
  out << "RUN mode=" << request.mode;
  if (!request.engine.empty()) out << " engine=" << request.engine;
  out << " timeout_ms=" << request.timeout_ms
      << " max_tuples=" << request.max_tuples << " q=" << request.query_text;
  return out.str();
}

bool ParseRequest(const std::string& line, QueryRequest* request,
                  std::string* error) {
  *request = QueryRequest();
  std::size_t pos = line.find(' ');
  const std::string verb = line.substr(0, pos);
  if (verb == "DELTA") {
    request->kind = "delta";
    while (pos != std::string::npos) {
      const std::size_t start = pos + 1;
      if (start >= line.size()) break;
      pos = line.find(' ', start);
      const std::string token = line.substr(
          start, pos == std::string::npos ? std::string::npos : pos - start);
      if (token.empty()) continue;
      std::string key, value;
      if (!SplitKeyValue(token, &key, &value)) {
        return Fail(error, "malformed request token: " + token);
      }
      if (key == "relation") {
        request->delta.relation = value;
      } else if (key == "add") {
        if (!ParseTuples(value, &request->delta.adds)) {
          return Fail(error, "bad add tuples: " + value);
        }
      } else if (key == "del") {
        if (!ParseTuples(value, &request->delta.deletes)) {
          return Fail(error, "bad del tuples: " + value);
        }
      } else {
        return Fail(error, "unknown request key: " + key);
      }
    }
    if (request->delta.relation.empty()) {
      return Fail(error, "DELTA has no relation=");
    }
    return true;
  }
  if (verb != "RUN") {
    return Fail(error, "expected RUN or DELTA, got: " + verb);
  }
  bool saw_query = false;
  while (pos != std::string::npos && !saw_query) {
    const std::size_t start = pos + 1;
    if (start >= line.size()) break;
    // q= swallows the rest of the line: queries contain spaces.
    if (line.compare(start, 2, "q=") == 0) {
      request->query_text = line.substr(start + 2);
      saw_query = true;
      break;
    }
    pos = line.find(' ', start);
    const std::string token = line.substr(
        start, pos == std::string::npos ? std::string::npos : pos - start);
    if (token.empty()) continue;
    std::string key, value;
    if (!SplitKeyValue(token, &key, &value)) {
      return Fail(error, "malformed request token: " + token);
    }
    if (key == "mode") {
      request->mode = value;
    } else if (key == "engine") {
      request->engine = value;
    } else if (key == "timeout_ms") {
      if (!ParseNumber(value, &request->timeout_ms)) {
        return Fail(error, "bad timeout_ms: " + value);
      }
    } else if (key == "max_tuples") {
      if (!ParseNumber(value, &request->max_tuples)) {
        return Fail(error, "bad max_tuples: " + value);
      }
    } else {
      return Fail(error, "unknown request key: " + key);
    }
  }
  if (!saw_query || request->query_text.empty()) {
    return Fail(error, "request has no q=<query>");
  }
  return true;
}

std::vector<std::string> FormatResponse(const QueryResponse& response) {
  std::vector<std::string> lines;
  lines.reserve(response.tuples.size() + 1);
  for (const Tuple& tuple : response.tuples) {
    std::ostringstream out;
    out << "TUPLE";
    for (const Value v : tuple) out << ' ' << v;
    lines.push_back(out.str());
  }
  std::ostringstream out;
  if (response.status == RunStatus::kOk) {
    out << "OK count=" << response.count << " seconds=" << response.seconds
        << " stats=" << response.stats.ToWire();
  } else {
    out << "ERR status=" << RunStatusName(response.status)
        << " retry_after_ms=" << response.retry_after_ms
        << " msg=" << response.message;
  }
  lines.push_back(out.str());
  return lines;
}

bool IsTerminalResponseLine(const std::string& line) {
  return line.compare(0, 3, "OK ") == 0 || line == "OK" ||
         line.compare(0, 4, "ERR ") == 0;
}

bool ParseResponse(const std::vector<std::string>& lines,
                   QueryResponse* response, std::string* error) {
  *response = QueryResponse();
  if (lines.empty()) return Fail(error, "empty response");
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.compare(0, 6, "TUPLE ") != 0 && line != "TUPLE") {
      return Fail(error, "expected TUPLE line, got: " + line);
    }
    Tuple tuple;
    std::istringstream in(line.substr(5));
    Value v;
    while (in >> v) tuple.push_back(v);
    // The loop ends either at end-of-line (eof) or on a token that is not
    // a Value — the latter is corruption, not a shorter tuple.
    if (!in.eof()) {
      return Fail(error, "non-numeric TUPLE payload: " + line);
    }
    response->tuples.push_back(std::move(tuple));
  }
  const std::string& last = lines.back();
  if (!IsTerminalResponseLine(last)) {
    return Fail(error, "response not terminated by OK/ERR: " + last);
  }
  // Status starts kOk; an ERR line must carry an explicit status= token
  // (checked below), so a truncated ERR cannot masquerade as success.
  const bool ok = last[0] == 'O';
  std::size_t pos = last.find(' ');
  while (pos != std::string::npos) {
    const std::size_t start = pos + 1;
    if (start >= last.size()) break;
    // msg= swallows the rest of the line, mirroring q= on requests.
    if (last.compare(start, 4, "msg=") == 0) {
      response->message = last.substr(start + 4);
      break;
    }
    pos = last.find(' ', start);
    const std::string token = last.substr(
        start, pos == std::string::npos ? std::string::npos : pos - start);
    if (token.empty()) continue;
    std::string key, value;
    if (!SplitKeyValue(token, &key, &value)) {
      return Fail(error, "malformed response token: " + token);
    }
    if (key == "count") {
      if (!ParseNumber(value, &response->count)) {
        return Fail(error, "bad count: " + value);
      }
    } else if (key == "seconds") {
      if (!ParseNumber(value, &response->seconds)) {
        return Fail(error, "bad seconds: " + value);
      }
    } else if (key == "status") {
      if (!ParseRunStatus(value, &response->status)) {
        return Fail(error, "unknown status: " + value);
      }
    } else if (key == "retry_after_ms") {
      if (!ParseNumber(value, &response->retry_after_ms)) {
        return Fail(error, "bad retry_after_ms: " + value);
      }
    } else if (key == "stats") {
      // Optional (older peers omit it); absent leaves default ExecStats.
      if (!ExecStats::FromWire(value, &response->stats)) {
        return Fail(error, "bad stats: " + value);
      }
    } else {
      return Fail(error, "unknown response key: " + key);
    }
  }
  if (ok && response->status != RunStatus::kOk) {
    return Fail(error, "OK line with non-OK status");
  }
  if (!ok && response->status == RunStatus::kOk) {
    return Fail(error, "ERR line with no status=");
  }
  return true;
}

}  // namespace clftj
