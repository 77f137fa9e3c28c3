#ifndef CLFTJ_UTIL_SIMD_H_
#define CLFTJ_UTIL_SIMD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/common.h"

namespace clftj {
namespace simd {

/// Runtime CPU dispatch for the data-parallel hot-path kernels (see
/// docs/simd.md). The engine's three compute kernels — the leapfrog Seek's
/// galloping lower bound, BuildAtomView's row filters, and (by the same
/// override surface, though it is thread- not lane-parallel) Normalize's
/// sharded permutation sort — are reached through a table of function
/// pointers selected once per process:
///
///   * the *scalar* arm is the reference implementation (the exact code the
///     recorded bench baselines were produced under);
///   * the *AVX2* arm is a lane-for-lane translation compiled in a single
///     separately-flagged TU (src/util/simd_avx2.cc, the only file built
///     with -mavx2), selected only when cpuid reports AVX2 support.
///
/// Counting contract: every kernel charges exactly the probes its scalar
/// twin would consume, so ExecStats — including memory_accesses — is
/// bit-identical across arms and the cross-PR bench baselines stay
/// comparable. Over-fetched speculative lanes are issued but not charged
/// (the same policy the 4-way scalar unroll already follows; rationale in
/// docs/simd.md).
///
/// The selection is overridable (--simd on clftj_cli, CLFTJ_SIMD on
/// clftj_server, SetMode from code) and forced-scalar builds
/// (-DCLFTJ_DISABLE_AVX2) compile the AVX2 TU down to an empty registration,
/// so non-AVX2 hosts and CI lanes run the reference arm untouched.

/// Seek kernel: least index in (pos, end] of the sorted range vals[pos..end)
/// whose value is >= bound (end if none). Preconditions and the probe
/// counting contract are those of GallopingLowerBound (trie/leapfrog.h).
using SeekLowerBoundFn = std::size_t (*)(const Value* vals, std::size_t pos,
                                         std::size_t end, Value bound,
                                         std::uint64_t* comparisons);

/// One constant-term predicate of an atom filter: row i passes iff
/// column[i] == constant.
struct ConstPredicate {
  const Value* column;
  Value constant;
};

/// One repeated-variable predicate: row i passes iff left[i] == right[i]
/// (every occurrence of a variable must equal its first occurrence).
struct EqPredicate {
  const Value* left;
  const Value* right;
};

/// A conjunction of row predicates over parallel columns. Pointers are
/// borrowed; every column must have at least `rows` entries when applied.
struct RowFilter {
  const ConstPredicate* consts = nullptr;
  std::size_t num_consts = 0;
  const EqPredicate* eqs = nullptr;
  std::size_t num_eqs = 0;
};

/// Filter kernel: appends to *keep the index of every row in [0, rows) that
/// satisfies all predicates, in ascending order. Both arms produce the same
/// keep list bit for bit (the predicate is a pure conjunction). Requires
/// rows < 2^32 (trie builds already enforce this bound upstream).
using FilterRowsFn = void (*)(const RowFilter& filter, std::size_t rows,
                              std::vector<std::uint32_t>* keep);

/// Dedup kernel for Relation::Normalize: given k parallel columns and a
/// sort permutation `order` over n rows (adjacent-equal rows are adjacent
/// in `order`), appends to *keep the row ids of the first member of every
/// run of duplicate rows, in permutation order. Charges no ExecStats (the
/// build-side dedup is not part of the paper's memory-access metric). Both
/// arms produce the same keep list bit for bit.
using DedupRowsFn = void (*)(const Value* const* cols, int k,
                             const std::size_t* order, std::size_t n,
                             std::vector<std::size_t>* keep);

/// One dispatch arm: a named table of kernel entry points.
struct Kernels {
  const char* name;  // "scalar" or "avx2"
  SeekLowerBoundFn seek_lower_bound;
  FilterRowsFn filter_rows;
  DedupRowsFn dedup_rows;
};

/// The reference arm; always available.
const Kernels& ScalarKernels();

/// The AVX2 arm, or null when the AVX2 TU was compiled out
/// (-DCLFTJ_DISABLE_AVX2 or a compiler without -mavx2). Availability of the
/// *table* says nothing about the *CPU* — pair with CpuSupportsAvx2().
const Kernels* Avx2KernelsOrNull();

/// True iff the running CPU reports AVX2 (cpuid; cached after first probe).
bool CpuSupportsAvx2();

/// True iff the AVX2 arm can actually run here: compiled in AND the CPU
/// supports it. This is what Mode::kAuto selects on.
bool Avx2Available();

/// Dispatch override. kAuto probes the CPU; kAvx2 / kScalar force an arm.
enum class Mode : int { kAuto = 0, kAvx2 = 1, kScalar = 2 };

/// Installs a dispatch mode for the whole process. Returns false (and
/// changes nothing) iff kAvx2 was requested but Avx2Available() is false.
/// Thread-safe, but intended for startup: kernels already inlined into a
/// running query keep their arm until its next dispatch-point call.
bool SetMode(Mode mode);

/// The mode most recently installed (kAuto until the first SetMode).
Mode CurrentMode();

/// Parses "auto" / "avx2" / "scalar". Returns false on anything else.
bool ParseMode(const std::string& text, Mode* out);

const char* ModeName(Mode mode);

/// One-line human-readable dispatch summary for --mode info and server
/// startup logs, e.g. "avx2 (mode=auto, cpu avx2: yes, avx2 kernels:
/// compiled)".
std::string Describe();

namespace internal {
extern std::atomic<const Kernels*> g_active;
/// Slow path: resolves the auto arm, installs it, returns it.
const Kernels& ResolveActive();
}  // namespace internal

/// The active arm. Hot path: one relaxed load and a predictable branch.
inline const Kernels& Active() {
  const Kernels* k = internal::g_active.load(std::memory_order_relaxed);
  return k != nullptr ? *k : internal::ResolveActive();
}

/// Dispatched seek lower bound. TrieIterator::Seek routes every seek that
/// lands beyond its short-seek window through this; a shorter one is found
/// by a scan and charged GallopCharge of its landing offset, the probes
/// this kernel would have charged (trie/leapfrog.h, docs/simd.md "Short
/// seeks").
inline std::size_t SeekLowerBound(const Value* vals, std::size_t pos,
                                  std::size_t end, Value bound,
                                  std::uint64_t* comparisons) {
  return Active().seek_lower_bound(vals, pos, end, bound, comparisons);
}

/// Dispatched row filter (BuildAtomView's non-plain column filters).
inline void FilterRows(const RowFilter& filter, std::size_t rows,
                       std::vector<std::uint32_t>* keep) {
  Active().filter_rows(filter, rows, keep);
}

/// Dispatched adjacent-duplicate elimination (Normalize's dedup pass over
/// the merged sort permutation).
inline void DedupRows(const Value* const* cols, int k,
                      const std::size_t* order, std::size_t n,
                      std::vector<std::size_t>* keep) {
  Active().dedup_rows(cols, k, order, n, keep);
}

}  // namespace simd
}  // namespace clftj

#endif  // CLFTJ_UTIL_SIMD_H_
