#ifndef CLFTJ_SERVER_PROTOCOL_H_
#define CLFTJ_SERVER_PROTOCOL_H_

#include <string>
#include <vector>

#include "server/service.h"

namespace clftj {

/// The line-based wire protocol between clftj_server and its clients.
/// One request is one line; one response is zero or more TUPLE lines
/// followed by exactly one terminal OK or ERR line. Everything is plain
/// text so a corrupted byte (the kRequestBytes fault) degrades into a
/// parse failure — a typed kBadQuery — never into undefined framing.
///
///   request:  RUN mode=count engine=CLFTJ timeout_ms=500 max_tuples=0
///             q=E(x,y), E(y,z)
///   mutation: DELTA relation=E add=1,2;3,4 del=5,6
///   success:  TUPLE 1 2
///             TUPLE 1 3
///             OK count=2 seconds=0.004
///   failure:  ERR status=SHED retry_after_ms=50 msg=request queue is full
///
/// `q=` (and `msg=`) swallow the rest of the line, so queries may contain
/// spaces and '=' freely; they must therefore come last. A DELTA line
/// carries its tuples inline: values ','-separated within a tuple, tuples
/// ';'-separated, empty add=/del= omitted; the OK response's count is the
/// number of tuples actually applied (no-ops excluded). Parsing and
/// formatting are pure functions on strings so the whole protocol is
/// testable without a socket.

/// Parses a DELTA tuple list ("1,2;3,4"), appending its tuples to *out.
/// Every value is a plain in-range base-10 number (ParseNumber); an empty
/// value or tuple ("1,,2", "1,2;", ";", "") is corruption and returns
/// false, with *out holding the tuples parsed before it. clftj_cli and
/// clftj_client parse their tuple flags with it, so a tool accepts exactly
/// the lists the server does.
bool ParseTuples(const std::string& text, std::vector<Tuple>* out);

/// Formats a request as one line (no trailing newline).
std::string FormatRequest(const QueryRequest& request);

/// Parses a request line. On failure returns false and stores a
/// diagnostic in *error (if non-null); the caller maps that to kBadQuery.
bool ParseRequest(const std::string& line, QueryRequest* request,
                  std::string* error);

/// Formats a response as protocol lines (each without trailing newline):
/// TUPLE lines (eval results) then the terminal OK/ERR line.
std::vector<std::string> FormatResponse(const QueryResponse& response);

/// True for lines that terminate a response (OK ... / ERR ...).
bool IsTerminalResponseLine(const std::string& line);

/// Parses a full response (TUPLE* then OK/ERR) back into a QueryResponse.
/// A malformed response yields false; *error explains (if non-null).
bool ParseResponse(const std::vector<std::string>& lines,
                   QueryResponse* response, std::string* error);

}  // namespace clftj

#endif  // CLFTJ_SERVER_PROTOCOL_H_
