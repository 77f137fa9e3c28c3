#ifndef CLFTJ_TOOLS_FLAGS_H_
#define CLFTJ_TOOLS_FLAGS_H_

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "util/parse.h"

namespace clftj {

/// Parses the value of the numeric command-line flag `flag` into *out with
/// ParseNumber. A malformed value prints one line and exits 2, the
/// usage-error code of clftj_cli, clftj_client and clftj_server.
template <typename T>
void ParseFlag(const std::string& flag, const std::string& text, T* out) {
  if (!ParseNumber(text, out)) {
    std::cerr << "bad value for " << flag << ": '" << text << "'\n";
    std::exit(2);
  }
}

/// Parses a relation's tuples given as "R=1,2;3,4" (clftj_cli --append,
/// clftj_client --append/--delete): the name before the first '=', then a
/// DELTA tuple list (ParseTuples) whose tuples are appended to *tuples.
/// False when the name is missing or the list is malformed.
inline bool ParseRelationTuples(const std::string& spec, std::string* relation,
                                std::vector<Tuple>* tuples) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  *relation = spec.substr(0, eq);
  return ParseTuples(spec.substr(eq + 1), tuples);
}

}  // namespace clftj

#endif  // CLFTJ_TOOLS_FLAGS_H_
