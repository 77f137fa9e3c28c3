#ifndef CLFTJ_TOOLS_FLAGS_H_
#define CLFTJ_TOOLS_FLAGS_H_

#include <cstdlib>
#include <iostream>
#include <string>

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

}  // namespace clftj

#endif  // CLFTJ_TOOLS_FLAGS_H_
