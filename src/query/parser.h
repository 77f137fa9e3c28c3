#ifndef CLFTJ_QUERY_PARSER_H_
#define CLFTJ_QUERY_PARSER_H_

#include <optional>
#include <string>

#include "query/query.h"

namespace clftj {

/// Parses a textual full CQ of the form
///
///   E(x, y), E(y, z), R(z, 7)
///
/// Identifiers starting with a letter or '_' are variables (named in order
/// of first appearance); signed integer literals are constants (a literal
/// outside the int64 range is an error). Whitespace is insignificant. On
/// failure returns nullopt and, if `error` is non-null, stores a
/// human-readable message with the offending position.
std::optional<Query> ParseQuery(const std::string& text,
                                std::string* error = nullptr);

}  // namespace clftj

#endif  // CLFTJ_QUERY_PARSER_H_
