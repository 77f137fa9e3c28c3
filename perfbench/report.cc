#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "bench.h"

namespace perfbench {

namespace {

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t TupleHash(const clftj::Tuple& tuple) {
  std::uint64_t h = Mix(tuple.size());
  for (const clftj::Value v : tuple) h = Mix(h ^ static_cast<std::uint64_t>(v));
  return h;
}

void SpanLog::Add(std::size_t id, std::string name, std::string parent,
                  Clock::time_point start, Clock::time_point end) {
  Span span;
  span.id = id;
  span.name = std::move(name);
  span.parent = std::move(parent);
  span.start_us =
      std::chrono::duration<double, std::micro>(start - epoch_).count();
  span.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
  spans_.push_back(std::move(span));
}

std::map<std::string, double> SpanLog::SelfTimeMs() const {
  // Children are matched to their parent by (id, parent name); a request
  // has at most one span of each name per phase, so that is unambiguous.
  std::map<std::pair<std::size_t, std::string>, double> child_us;
  for (const Span& s : spans_) {
    if (!s.parent.empty()) child_us[{s.id, s.parent}] += s.dur_us;
  }
  std::map<std::string, double> self_ms;
  for (const Span& s : spans_) {
    const auto it = child_us.find({s.id, s.name});
    const double children = it == child_us.end() ? 0.0 : it->second;
    self_ms[s.name] += std::max(0.0, s.dur_us - children) * 1e-3;
  }
  return self_ms;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  items_.push_back({name, {value, unit}});
}

double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace perfbench
