#include "util/stats.h"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "util/parse.h"

namespace clftj {

void ExecStats::Merge(const ExecStats& other) {
  memory_accesses += other.memory_accesses;
  intermediate_tuples += other.intermediate_tuples;
  output_tuples += other.output_tuples;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  cache_inserts += other.cache_inserts;
  cache_rejects += other.cache_rejects;
  cache_evictions += other.cache_evictions;
  cache_entries_peak = std::max(cache_entries_peak, other.cache_entries_peak);
  cache_bytes_peak = std::max(cache_bytes_peak, other.cache_bytes_peak);
  plan_cache_hits += other.plan_cache_hits;
  plan_cache_misses += other.plan_cache_misses;
  substrate_builds += other.substrate_builds;
  substrate_reuses += other.substrate_reuses;
  plan_resolve_ns += other.plan_resolve_ns;
  substrate_build_ns += other.substrate_build_ns;
  batch_size += other.batch_size;
  batch_shared_execs += other.batch_shared_execs;
  batch_prefix_seeds += other.batch_prefix_seeds;
}

std::string ExecStats::ToString() const {
  std::ostringstream os;
  os << "mem_accesses=" << memory_accesses
     << " intermediates=" << intermediate_tuples
     << " outputs=" << output_tuples << " cache_hits=" << cache_hits
     << " cache_misses=" << cache_misses << " cache_inserts=" << cache_inserts
     << " cache_rejects=" << cache_rejects
     << " cache_evictions=" << cache_evictions
     << " cache_peak=" << cache_entries_peak
     << " cache_bytes_peak=" << cache_bytes_peak
     << " plan_cache_hits=" << plan_cache_hits
     << " plan_cache_misses=" << plan_cache_misses
     << " substrate_builds=" << substrate_builds
     << " substrate_reuses=" << substrate_reuses
     << " plan_resolve_ns=" << plan_resolve_ns
     << " substrate_build_ns=" << substrate_build_ns
     << " batch_size=" << batch_size
     << " batch_shared_execs=" << batch_shared_execs
     << " batch_prefix_seeds=" << batch_prefix_seeds;
  return os.str();
}

namespace {

// Wire keys, short on purpose: the stats token rides on every OK response.
struct WireField {
  const char* key;
  std::uint64_t ExecStats::*member;
};

constexpr WireField kWireFields[] = {
    {"ma", &ExecStats::memory_accesses},
    {"it", &ExecStats::intermediate_tuples},
    {"ot", &ExecStats::output_tuples},
    {"ch", &ExecStats::cache_hits},
    {"cm", &ExecStats::cache_misses},
    {"ci", &ExecStats::cache_inserts},
    {"cr", &ExecStats::cache_rejects},
    {"ce", &ExecStats::cache_evictions},
    {"cep", &ExecStats::cache_entries_peak},
    {"cbp", &ExecStats::cache_bytes_peak},
    {"pch", &ExecStats::plan_cache_hits},
    {"pcm", &ExecStats::plan_cache_misses},
    {"sb", &ExecStats::substrate_builds},
    {"sr", &ExecStats::substrate_reuses},
    {"prn", &ExecStats::plan_resolve_ns},
    {"sbn", &ExecStats::substrate_build_ns},
    {"bsz", &ExecStats::batch_size},
    {"bse", &ExecStats::batch_shared_execs},
    {"bps", &ExecStats::batch_prefix_seeds},
};

}  // namespace

std::string ExecStats::ToWire() const {
  std::ostringstream os;
  bool first = true;
  for (const WireField& f : kWireFields) {
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
    for (const WireField& f : kWireFields) {
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
