#include "util/stats.h"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "util/parse.h"

namespace clftj {

namespace {

// The one table of counters. `key` is the wire key, short on purpose: the
// stats token rides on every OK response. `name` is the ToString label.
// Merge sums a flow counter and takes the max of a peak.
struct Field {
  const char* key;
  const char* name;
  std::uint64_t ExecStats::*member;
  bool peak;
};

constexpr Field kFields[] = {
    {"ma", "mem_accesses", &ExecStats::memory_accesses, false},
    {"it", "intermediates", &ExecStats::intermediate_tuples, false},
    {"ot", "outputs", &ExecStats::output_tuples, false},
    {"ch", "cache_hits", &ExecStats::cache_hits, false},
    {"cm", "cache_misses", &ExecStats::cache_misses, false},
    {"ci", "cache_inserts", &ExecStats::cache_inserts, false},
    {"cr", "cache_rejects", &ExecStats::cache_rejects, false},
    {"ce", "cache_evictions", &ExecStats::cache_evictions, false},
    {"cep", "cache_peak", &ExecStats::cache_entries_peak, true},
    {"cbp", "cache_bytes_peak", &ExecStats::cache_bytes_peak, true},
    {"pch", "plan_cache_hits", &ExecStats::plan_cache_hits, false},
    {"pcm", "plan_cache_misses", &ExecStats::plan_cache_misses, false},
    {"sb", "substrate_builds", &ExecStats::substrate_builds, false},
    {"sr", "substrate_reuses", &ExecStats::substrate_reuses, false},
    {"prn", "plan_resolve_ns", &ExecStats::plan_resolve_ns, false},
    {"sbn", "substrate_build_ns", &ExecStats::substrate_build_ns, false},
    {"bsz", "batch_size", &ExecStats::batch_size, false},
    {"bse", "batch_shared_execs", &ExecStats::batch_shared_execs, false},
    {"bps", "batch_prefix_seeds", &ExecStats::batch_prefix_seeds, false},
};

}  // namespace

void ExecStats::Merge(const ExecStats& other) {
  for (const Field& f : kFields) {
    this->*f.member = f.peak ? std::max(this->*f.member, other.*f.member)
                             : this->*f.member + other.*f.member;
  }
}

std::string ExecStats::ToString() const {
  std::ostringstream os;
  bool first = true;
  for (const Field& f : kFields) {
    if (!first) os << ' ';
    first = false;
    os << f.name << '=' << this->*f.member;
  }
  return os.str();
}

std::string ExecStats::ToWire() const {
  std::ostringstream os;
  bool first = true;
  for (const Field& f : kFields) {
    if (!first) os << ',';
    first = false;
    os << f.key << ':' << this->*f.member;
  }
  return os.str();
}

bool ExecStats::FromWire(const std::string& text, ExecStats* out) {
  ExecStats parsed;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::size_t colon = text.find(':', pos);
    if (colon == std::string::npos || colon >= end || colon == pos ||
        colon + 1 == end) {
      return false;
    }
    const std::string key = text.substr(pos, colon - pos);
    std::uint64_t number = 0;
    if (!ParseNumber(std::string_view(text).substr(colon + 1, end - colon - 1),
                     &number)) {
      return false;
    }
    for (const Field& f : kFields) {
      if (key == f.key) {
        parsed.*f.member = number;
        break;
      }
    }
    pos = end + 1;
  }
  *out = parsed;
  return true;
}

}  // namespace clftj
