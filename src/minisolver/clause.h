// Arena-backed clause storage for the MiniPB solver.
//
// Clauses live in one contiguous std::vector<uint32_t> and are addressed
// by 32-bit word offsets (`ClauseRef`) instead of heap pointers — the
// MiniSat allocator design. Wins over per-`new` Clause objects:
//
//   * watcher lists carry 8-byte {ref, blocker} entries instead of
//     16-byte {pointer, blocker}, and successive clauses are adjacent in
//     memory, so the propagation loop's cache behaviour improves;
//   * clause-database reduction frees by marking; a relocation GC
//     (Solver::garbage_collect) compacts live clauses into a fresh arena
//     when the wasted fraction grows, so long solves do not fragment;
//   * the whole clause store is one allocation, making
//     memory_estimate_bytes() exact (capacity vs live vs wasted words).
//
// In-arena layout (32-bit words):
//
//   word 0            header: size(27) | tier(2) | reloced(1) | mark(1)
//                             | learnt(1)
//   word 1..2         learnt only: activity (float bit-cast), then
//                             lbd(31) | touched(1)
//   following words   the literals (Lit::index() codes)
//
// A relocated clause stores its forwarding ref in the word after the
// header (always present: arena clauses have >= 2 literals).
//
// Binary clauses additionally get dedicated inline watch lists
// (`BinWatcher`: the other literal + the ref) so propagating over a
// 2-clause never dereferences the arena at all; the ref is only touched
// when the clause becomes a reason or a conflict.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "minisolver/literal.h"
#include "util/error.h"

namespace cs::minisolver {

/// Word offset of a clause in the arena.
using ClauseRef = std::uint32_t;
inline constexpr ClauseRef kRefUndef = 0xFFFFFFFFu;

/// Learnt-clause quality tiers (Glucose/Chanseok-style clause DB):
/// core clauses (LBD <= kCoreLbd) are kept forever, tier2 clauses
/// (LBD <= kTier2Lbd) survive while they keep participating in conflicts,
/// local clauses compete on activity and lose half on every reduce.
enum class ClauseTier : std::uint32_t { kCore = 0, kTier2 = 1, kLocal = 2 };
inline constexpr int kCoreLbd = 3;
inline constexpr int kTier2Lbd = 6;

/// Proxy over one clause's words in the arena. Cheap to construct; valid
/// until the next allocation or GC (the arena vector may move).
class Clause {
 public:
  explicit Clause(std::uint32_t* base) : base_(base) {}

  std::uint32_t size() const { return base_[0] >> 5; }
  bool learnt() const { return (base_[0] & 1u) != 0; }
  bool marked() const { return (base_[0] & 2u) != 0; }
  void mark() { base_[0] |= 2u; }
  bool reloced() const { return (base_[0] & 4u) != 0; }

  ClauseTier tier() const {
    return static_cast<ClauseTier>((base_[0] >> 3) & 3u);
  }
  void set_tier(ClauseTier t) {
    base_[0] = (base_[0] & ~(3u << 3)) |
               (static_cast<std::uint32_t>(t) << 3);
  }

  /// Shrinks the clause in place (root-level false-literal stripping);
  /// the caller accounts the freed tail words as waste.
  void shrink_to(std::uint32_t new_size) {
    base_[0] = (base_[0] & 31u) | (new_size << 5);
  }

  float activity() const { return std::bit_cast<float>(base_[1]); }
  void set_activity(float a) { base_[1] = std::bit_cast<std::uint32_t>(a); }

  int lbd() const { return static_cast<int>(base_[2] >> 1); }
  void set_lbd(int lbd) {
    base_[2] = (static_cast<std::uint32_t>(lbd) << 1) | (base_[2] & 1u);
  }
  /// "Used in a recent conflict" flag driving tier2 → local demotion.
  bool touched() const { return (base_[2] & 1u) != 0; }
  void set_touched(bool t) {
    base_[2] = (base_[2] & ~1u) | (t ? 1u : 0u);
  }

  Lit lit(std::uint32_t i) const {
    return Lit::from_index(base_[lit_offset() + i]);
  }
  void set_lit(std::uint32_t i, Lit l) {
    base_[lit_offset() + i] = static_cast<std::uint32_t>(l.index());
  }
  void swap_lits(std::uint32_t i, std::uint32_t j) {
    std::swap(base_[lit_offset() + i], base_[lit_offset() + j]);
  }
  Lit operator[](std::uint32_t i) const { return lit(i); }

  std::uint32_t lit_offset() const { return learnt() ? 3u : 1u; }

  // GC forwarding (ClauseAllocator only).
  void set_forward(ClauseRef to) {
    base_[0] |= 4u;
    base_[1] = to;
  }
  ClauseRef forward() const { return base_[1]; }

 private:
  std::uint32_t* base_;
};

/// Bump allocator over one uint32 vector, with mark-based freeing and
/// relocation support for Solver::garbage_collect().
class ClauseAllocator {
 public:
  /// Words a clause of `size` literals occupies.
  static std::uint32_t words_for(std::uint32_t size, bool learnt) {
    return size + (learnt ? 3u : 1u);
  }

  ClauseRef alloc(std::span<const Lit> lits, bool learnt) {
    CS_ENSURE(lits.size() >= 2, "arena clause needs >= 2 literals");
    const auto size = static_cast<std::uint32_t>(lits.size());
    const auto ref = static_cast<ClauseRef>(mem_.size());
    mem_.resize(mem_.size() + words_for(size, learnt), 0);
    std::uint32_t* base = &mem_[ref];
    base[0] = (size << 5) | (learnt ? 1u : 0u);
    const std::uint32_t off = learnt ? 3u : 1u;
    for (std::uint32_t i = 0; i < size; ++i)
      base[off + i] = static_cast<std::uint32_t>(lits[i].index());
    return ref;
  }

  Clause deref(ClauseRef r) { return Clause(&mem_[r]); }
  const Clause deref(ClauseRef r) const {
    return Clause(const_cast<std::uint32_t*>(&mem_[r]));
  }

  /// Marks the clause deleted and accounts its words as waste. Watchers
  /// and list entries are purged lazily (propagation skip + GC sweep).
  void free_clause(ClauseRef r) {
    Clause c = deref(r);
    CS_ENSURE(!c.marked(), "double free of arena clause");
    wasted_ += words_for(c.size(), c.learnt());
    c.mark();
  }

  /// Accounts `words` tail words freed by an in-place shrink.
  void note_shrink(std::uint32_t words) { wasted_ += words; }

  /// Copies a live clause into `to` (or follows an existing forwarding
  /// ref) and rewrites `r` to the new location.
  void reloc(ClauseRef& r, ClauseAllocator& to) {
    Clause c = deref(r);
    if (c.reloced()) {
      r = c.forward();
      return;
    }
    CS_ENSURE(!c.marked(), "relocating a freed clause");
    const std::uint32_t n = words_for(c.size(), c.learnt());
    const auto fresh = static_cast<ClauseRef>(to.mem_.size());
    to.mem_.insert(to.mem_.end(), &mem_[r], &mem_[r] + n);
    c.set_forward(fresh);
    r = fresh;
  }

  void reserve_words(std::size_t words) { mem_.reserve(words); }

  std::size_t size_words() const { return mem_.size(); }
  std::size_t capacity_words() const { return mem_.capacity(); }
  std::size_t wasted_words() const { return wasted_; }
  std::size_t live_words() const { return mem_.size() - wasted_; }

 private:
  std::vector<std::uint32_t> mem_;
  std::size_t wasted_ = 0;
};

/// Watcher entry for clauses of >= 3 literals: `blocker` is a literal
/// whose truth satisfies the clause without touching the arena
/// (MiniSat's blocking-literal optimization).
struct Watcher {
  ClauseRef cref = kRefUndef;
  Lit blocker = kUndefLit;
};

/// Inline watcher for binary clauses: propagation reads only `other`
/// (the remaining literal); `cref` is needed solely when the clause
/// becomes a reason or a conflict.
struct BinWatcher {
  Lit other = kUndefLit;
  ClauseRef cref = kRefUndef;
};

}  // namespace cs::minisolver
