#include "util/fault.h"

#include <chrono>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "util/parse.h"

namespace clftj {
namespace fault {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

struct State {
  Config config;
  std::array<std::atomic<std::uint64_t>, kNumSites> seen{};
  std::array<std::atomic<std::uint64_t>, kNumSites> fired{};
};

State& GlobalState() {
  static State state;
  return state;
}

// splitmix64: the repository's standard bit mixer (util/rng.cc seeds the
// same way), giving a platform-independent pseudo-random firing pattern.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void ResetCounters(State& state) {
  for (auto& c : state.seen) c.store(0, std::memory_order_relaxed);
  for (auto& c : state.fired) c.store(0, std::memory_order_relaxed);
}

bool AnyArmed(const Config& config) {
  for (const std::uint64_t p : config.period) {
    if (p > 0) return true;
  }
  return false;
}

}  // namespace

namespace internal {

bool FireSlow(Site site) {
  State& state = GlobalState();
  const int s = static_cast<int>(site);
  const std::uint64_t period = state.config.period[s];
  // Every opportunity is counted, even at disabled sites, so tests can
  // assert a site was reached at all.
  const std::uint64_t index =
      state.seen[s].fetch_add(1, std::memory_order_relaxed);
  if (period == 0) return false;
  const std::uint64_t draw =
      Mix(state.config.seed ^ (0x51edu + 0x9e37u * (s + 1)) ^ (index * 2u));
  if (draw % period != 0) return false;
  state.fired[s].fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace internal

void Configure(const Config& config) {
  State& state = GlobalState();
  state.config = config;
  ResetCounters(state);
  internal::g_enabled.store(AnyArmed(config), std::memory_order_relaxed);
}

void Disable() { Configure(Config{}); }

Config ActiveConfig() { return GlobalState().config; }

bool ConfigureFromEnv() {
  const char* raw = std::getenv("CLFTJ_FAULTS");
  if (raw == nullptr || raw[0] == '\0') return false;
  Config config;
  std::string text(raw);
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = item.substr(0, eq);
    std::uint64_t value = 0;
    if (!ParseNumber(std::string_view(item).substr(eq + 1), &value)) {
      return false;
    }
    if (key == "seed") {
      config.seed = value;
    } else if (key == "delay_ms") {
      config.delay_ms = value;
    } else if (key == "trie_build") {
      config.period[static_cast<int>(Site::kTrieBuild)] = value;
    } else if (key == "cache_insert") {
      config.period[static_cast<int>(Site::kCacheInsert)] = value;
    } else if (key == "materialize") {
      config.period[static_cast<int>(Site::kMaterialize)] = value;
    } else if (key == "deadline") {
      config.period[static_cast<int>(Site::kDeadlineTrip)] = value;
    } else if (key == "worker_delay") {
      config.period[static_cast<int>(Site::kWorkerDelay)] = value;
    } else if (key == "request_bytes") {
      config.period[static_cast<int>(Site::kRequestBytes)] = value;
    } else {
      return false;
    }
  }
  Configure(config);
  return Enabled();
}

std::uint64_t Fired(Site site) {
  return GlobalState()
      .fired[static_cast<int>(site)]
      .load(std::memory_order_relaxed);
}

std::uint64_t Seen(Site site) {
  return GlobalState()
      .seen[static_cast<int>(site)]
      .load(std::memory_order_relaxed);
}

void MaybeThrowAlloc(Site site) {
  if (Fire(site)) throw InjectedFault();
}

bool MaybeDelay(Site site) {
  if (!Fire(site)) return false;
  const std::uint64_t ms = GlobalState().config.delay_ms;
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  return true;
}

bool MaybeCorrupt(Site site, std::string* bytes) {
  if (bytes == nullptr || bytes->empty()) return false;
  if (!Fire(site)) return false;
  State& state = GlobalState();
  const std::uint64_t base = Mix(
      state.config.seed ^ Fired(site) ^ (bytes->size() * 0x9e3779b9ull));
  // Flip up to three seed-chosen bytes; never produce '\n' (the framing
  // byte) so a corrupted request stays one corrupted *line*, the failure
  // mode the parser must survive, rather than silently becoming two.
  const int flips = 1 + static_cast<int>(base % 3);
  for (int i = 0; i < flips; ++i) {
    const std::uint64_t draw = Mix(base + i);
    const std::size_t at = draw % bytes->size();
    char c = static_cast<char>((*bytes)[at] ^ (0x01 + (draw >> 8) % 0x7f));
    if (c == '\n' || c == '\r') c = '#';
    (*bytes)[at] = c;
  }
  return true;
}

ScopedFaults::ScopedFaults(const Config& config)
    : previous_(ActiveConfig()), was_enabled_(Enabled()) {
  Configure(config);
}

ScopedFaults::~ScopedFaults() {
  if (was_enabled_) {
    Configure(previous_);
  } else {
    Disable();
  }
}

}  // namespace fault
}  // namespace clftj
