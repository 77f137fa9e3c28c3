#include "util/stats.h"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "util/parse.h"

namespace clftj {

void ExecStats::Merge(const ExecStats& other) {
  for (const ExecStatsField& f : kExecStatsFields) {
    this->*f.member = f.peak ? std::max(this->*f.member, other.*f.member)
                             : this->*f.member + other.*f.member;
  }
}

std::string ExecStats::ToString() const {
  std::ostringstream os;
  bool first = true;
  for (const ExecStatsField& f : kExecStatsFields) {
    if (!first) os << ' ';
    first = false;
    os << f.label << '=' << this->*f.member;
  }
  return os.str();
}

std::string ExecStats::ToWire() const {
  std::ostringstream os;
  bool first = true;
  for (const ExecStatsField& f : kExecStatsFields) {
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
    for (const ExecStatsField& f : kExecStatsFields) {
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
