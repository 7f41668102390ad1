// MiniPB: a CDCL satisfiability solver with native linear pseudo-Boolean
// constraints.
//
// This is the from-scratch solving substrate of the repo (DESIGN.md S4): a
// MiniSat-style conflict-driven clause-learning SAT core (two-watched
// literals with blocker literals over an arena of 32-bit clause
// references, inline binary-clause watch lists, VSIDS decision heuristic,
// 1-UIP clause learning, phase saving, LBD-tiered clause-database
// reduction with root-level simplification) extended with slack-based
// watched-sum pseudo-Boolean constraints Σ a_i·lit_i ≥ bound, which is
// exactly the theory fragment the ConfigSynth encoding needs. The solver
// solves under assumptions and extracts an unsat core over them, which
// powers the paper's Algorithm 1 (systematic analysis of UNSAT results)
// without Z3.
//
// Search runs one configuration, the winner of the heuristic ablation
// recorded in docs/BENCHMARKS.md:
//   * restarts — Glucose-style dynamic restarts driven by a fast/slow LBD
//     moving-average pair: restart when the recent learnt clauses are
//     markedly worse (higher LBD) than the lifetime average, with
//     Glucose's conflict schedule for clause-DB reduction.
//   * learned-clause minimization — recursive minimization against
//     reason clauses with the standard abstract-level filter.
//   * rephasing — periodic polarity resets cycling through the
//     best-phase snapshot (taken at the deepest trail seen), its
//     inversion, and the original coefficient-vote phases.
// Every policy is a pure function of the formula — no wall clock, no
// randomness — so capped solves stay bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "minisolver/clause.h"
#include "minisolver/heap.h"
#include "minisolver/literal.h"
#include "minisolver/pb_constraint.h"

namespace cs::minisolver {

class Solver {
 public:
  enum class Result { kSat, kUnsat, kUnknown };

  struct Stats {
    std::int64_t decisions = 0;
    std::int64_t propagations = 0;
    std::int64_t conflicts = 0;
    std::int64_t restarts = 0;
    std::int64_t learned_clauses = 0;
    std::int64_t deleted_clauses = 0;
    std::int64_t pb_propagations = 0;
    // Monotone clause-DB composition counters: clauses *entering* each
    // LBD tier (at learn time, by promotion, or by tier2 demotion for
    // lbd_local), so deltas across solves stay meaningful.
    std::int64_t lbd_core = 0;
    std::int64_t lbd_tier2 = 0;
    std::int64_t lbd_local = 0;
    /// Root-level simplification rounds run between restarts.
    std::int64_t db_simplify_rounds = 0;
    /// Polarity-reset events (best/inverted/original rephase cycle).
    std::int64_t rephases = 0;
    /// Literals removed from learnt clauses by minimization.
    std::int64_t minimized_literals = 0;
  };

  /// Exact footprint of the constraint store, split by owner. The arena
  /// numbers distinguish reserved capacity, allocated words, and words
  /// freed-but-not-yet-collected so Table VI reports honest memory.
  struct MemoryBreakdown {
    std::size_t arena_capacity_bytes = 0;
    std::size_t arena_size_bytes = 0;    // allocated (live + wasted)
    std::size_t arena_wasted_bytes = 0;  // freed, awaiting GC
    std::size_t watcher_bytes = 0;
    std::size_t binary_watcher_bytes = 0;
    std::size_t pb_bytes = 0;
    std::size_t pb_occ_bytes = 0;
    std::size_t var_bytes = 0;      // per-variable and per-literal arrays
    std::size_t scratch_bytes = 0;  // reused conflict-analysis buffers

    std::size_t total() const {
      return arena_capacity_bytes + watcher_bytes + binary_watcher_bytes +
             pb_bytes + pb_occ_bytes + var_bytes + scratch_bytes;
    }
    /// Fraction of allocated arena words that are garbage.
    double wasted_fraction() const {
      return arena_size_bytes == 0
                 ? 0.0
                 : static_cast<double>(arena_wasted_bytes) /
                       static_cast<double>(arena_size_bytes);
    }
  };

  Solver();

  /// Creates a fresh unassigned variable.
  Var new_var();
  std::size_t num_vars() const { return assigns_.size(); }

  /// Pre-sizes all per-variable arrays for `n` variables.
  void reserve_vars(std::size_t n);

  /// Adds a clause (≥1 literals). Returns false if the solver is already
  /// in an unsatisfiable state after the addition. The literals are
  /// copied into reused scratch, so adding a clause allocates nothing
  /// beyond the clause's own arena words and watchers.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Adds Σ terms ≥ bound. Coefficients may be negative (normalized away).
  /// Throws util::Error when the normalized bound, the coefficient total
  /// or the watch threshold (bound + largest coefficient) does not fit in
  /// 64 bits — never wraps or clamps.
  bool add_linear_ge(std::vector<PbTerm> terms, std::int64_t bound);

  /// Adds Σ terms ≤ bound (encoded by negating coefficients).
  bool add_linear_le(std::vector<PbTerm> terms, std::int64_t bound);

  /// False once the constraint store is unsatisfiable at level 0.
  bool ok() const { return ok_; }

  /// Solves under the given assumption literals.
  Result solve(const std::vector<Lit>& assumptions = {});

  /// Model value of a variable after kSat.
  bool model_value(Var v) const;

  /// After kUnsat under assumptions: a subset of the assumption literals
  /// whose conjunction with the constraints is unsatisfiable. Empty when
  /// the constraints alone are unsatisfiable.
  const std::vector<Lit>& unsat_core() const { return unsat_core_; }

  /// Abort search after this many conflicts (0 = unlimited); solve()
  /// returns kUnknown when the budget is exhausted.
  void set_conflict_limit(std::int64_t limit) { conflict_limit_ = limit; }

  /// Abort search after this much wall-clock time per solve() call
  /// (0 = unlimited); returns kUnknown on expiry.
  void set_time_limit_ms(std::int64_t ms) { time_limit_ms_ = ms; }

  const Stats& stats() const { return stats_; }

  /// Heap footprint of the constraint store (for Table VI); equals
  /// memory_breakdown().total().
  std::size_t memory_estimate_bytes() const;
  MemoryBreakdown memory_breakdown() const;

  /// Debug invariant check: recomputes every PB constraint's watch_sum
  /// from the current assignment and compares it against the
  /// incrementally maintained value. The fuzzer calls this after every
  /// solve.
  bool pb_bookkeeping_ok() const;

  /// Debug hook invoked with every learned clause (after minimization).
  /// Used by the test suite to audit soundness against reference models.
  void set_learnt_hook(std::function<void(const std::vector<Lit>&)> hook) {
    learnt_hook_ = std::move(hook);
  }

  /// Periodic progress hook: invoked from the search loop with the
  /// cumulative stats every `every_conflicts` conflicts (0 or an empty
  /// callback disables it). Fires mid-search, so the callback must not
  /// touch the solver; the backend layer uses it to stream
  /// conflict/propagation/restart timelines into the tracer. Cost when
  /// unset: one integer compare per conflict.
  void set_progress_callback(std::int64_t every_conflicts,
                             std::function<void(const Stats&)> callback) {
    if (every_conflicts <= 0 || !callback) {
      progress_every_ = 0;
      progress_ = nullptr;
      return;
    }
    progress_every_ = every_conflicts;
    next_progress_at_ = stats_.conflicts + every_conflicts;
    progress_ = std::move(callback);
  }

 private:
  struct Reason {
    ClauseRef cref = kRefUndef;
    PbConstraint* pb = nullptr;
    bool is_none() const { return cref == kRefUndef && pb == nullptr; }
  };

  LBool value(Var v) const { return assigns_[static_cast<std::size_t>(v)]; }
  LBool value(Lit l) const {
    return lbool_of(value(l.var()), l.is_neg());
  }
  int level(Var v) const { return level_[static_cast<std::size_t>(v)]; }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  void new_decision_level() {
    trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
  }

  /// Assigns `p` true with the given reason; p must be unassigned.
  void unchecked_enqueue(Lit p, Reason reason);

  /// Unit propagation over clauses and PB constraints. Returns the
  /// conflicting constraint, or an empty Reason when the store is stable.
  Reason propagate();

  /// Undoes all assignments above `target_level`.
  void cancel_until(int target_level);

  /// 1-UIP conflict analysis; fills `learnt` (learnt[0] = asserting lit)
  /// and returns the backtrack level.
  int analyze(Reason conflict, std::vector<Lit>& learnt);

  /// Computes the failed-assumption core after an assumption conflict.
  void analyze_final(Lit failed_assumption);

  /// Literals that justify the assignment of `p` by `reason` (p itself
  /// excluded). For PB reasons, only literals falsified before `p`.
  void reason_literals(const Reason& reason, Lit p,
                       std::vector<Lit>& out) const;

  /// false_at_ value of a literal that is not assigned false.
  static constexpr std::int32_t kNotFalse =
      std::numeric_limits<std::int32_t>::max();
  /// Trail position below which a PB reason's false literals justify
  /// `p`: p's own position, or every position when p is undefined (the
  /// constraint is the conflict itself).
  std::int32_t reason_cutoff(Lit p) const {
    return p.valid() ? trail_pos_[static_cast<std::size_t>(p.var())]
                     : kNotFalse;
  }

  Lit pick_branch_lit();
  void bump_var(Var v);
  void decay_var_activity() { var_inc_ /= kVarDecay; }
  void bump_clause(Clause c);
  void decay_clause_activity() { clause_inc_ /= kClauseDecay; }
  void attach_clause(ClauseRef cref);
  /// Eagerly removes a long clause's two watchers (root simplification
  /// shrinking a clause to binary must reattach it on the binary lists).
  void detach_long_eager(ClauseRef cref, Lit l0, Lit l1);

  /// Distinct decision levels among the literals (the Glucose LBD).
  int compute_lbd(const std::vector<Lit>& lits);
  int compute_lbd(Clause c);
  /// Tier bookkeeping when a learnt clause participates in a conflict:
  /// recompute LBD, promote on improvement, flag tier2 clauses as used.
  void on_learnt_used(Clause c);

  /// Deletes the least-active half of the local tier and demotes tier2
  /// clauses that sat out the epoch (Glucose-style reduction).
  void reduce_db();
  /// Root-level simplification: drops satisfied clauses, strips false
  /// literals, reattaches clauses that shrank to binary.
  void simplify();
  /// Compacts the arena when the wasted fraction exceeds ~20%.
  void maybe_gc();
  void garbage_collect();

  /// Root-level watch-prefix re-tightening. The prefix only ever grows
  /// during search — deep falsification churn saturates it toward full
  /// watching of every term, and a
  /// saturated prefix keeps paying occurrence-list updates for terms
  /// that can no longer matter. At the root every assignment is
  /// permanent, so the tight prefix is recomputable exactly: shrink
  /// back to it and physically drop the stale occurrence entries.
  /// Requires decision_level() == 0.
  void retighten_pb_watches();

  /// One CDCL search episode, until a verdict, a restart or the budget.
  Result search(const std::vector<Lit>& assumptions);

  bool out_of_budget() const;

  /// Records a learnt clause's LBD in the Glucose restart averages.
  void note_learnt_lbd(int lbd);
  /// Records the trail size at conflict time. When the trail is markedly
  /// deeper than its lifetime average the search is
  /// plausibly close to a satisfying assignment, so the recent-LBD
  /// window is cleared — postponing the next dynamic restart by a full
  /// window (Glucose's "blocking restarts").
  void note_conflict_trail(std::size_t trail_size);
  /// Recent LBD window is full and markedly above the lifetime average —
  /// time to restart.
  bool glucose_restart_due() const;

  std::uint32_t abstract_level(Var v) const {
    return 1u << (level_[static_cast<std::size_t>(v)] & 31);
  }
  /// MiniSat's litRedundant: true when trail literal `p0`'s assignment is
  /// implied (through reason chains) by the other learnt-clause literals.
  /// Marks visited vars in seen_/minimize_toclear_; a failed probe rolls
  /// its own marks back.
  bool lit_redundant(Lit p0, std::uint32_t abstract_levels);
  /// Recursive minimization with the abstract-level filter.
  void minimize_recursive(std::vector<Lit>& learnt);

  /// Applies the next entry of the rephase cycle to polarity_.
  void do_rephase();

  static constexpr double kVarDecay = 0.95;
  static constexpr double kClauseDecay = 0.999;
  /// Glucose restart tuning: recent window size and the margin — restart
  /// when recent_avg > (kGlucoseNum/kGlucoseDen) * lifetime_avg.
  static constexpr std::size_t kLbdWindow = 50;
  static constexpr std::int64_t kGlucoseNum = 5;
  static constexpr std::int64_t kGlucoseDen = 4;
  /// Blocking-restart tuning: block when the conflict-time trail exceeds
  /// (kBlockingNum/kBlockingDen) * lifetime_trail_avg, but only after
  /// enough conflicts that the average is meaningful.
  static constexpr std::int64_t kBlockingNum = 7;
  static constexpr std::int64_t kBlockingDen = 5;
  static constexpr std::int64_t kBlockingMinConflicts = 10000;
  /// First rephase after this many conflicts; the interval doubles after
  /// every rephase so late search settles into its phases.
  static constexpr std::int64_t kRephaseInterval = 1000;
  /// Per-conflict work budget for recursive minimization, counted in
  /// reason literals visited. A PB reason expands to every false term of
  /// its constraint — hundreds of literals on the synthesis encodings —
  /// so the unbounded MiniSat-style DFS can dominate conflict analysis on
  /// long capped burns. When the budget runs out the remaining candidate
  /// literals are kept unexamined (sound: minimization only ever drops
  /// provably redundant literals). The count is a pure function of the
  /// formula, so capped solves stay deterministic.
  static constexpr std::int64_t kMinimizeBudget = 2000;
  /// Glucose's clause-DB reduction schedule: first reduction after
  /// kReduceBase conflicts, then every kReduceBase + kReduceInc·k.
  static constexpr std::int64_t kReduceBase = 2000;
  static constexpr std::int64_t kReduceInc = 300;

  bool ok_ = true;
  std::vector<LBool> assigns_;
  std::vector<char> polarity_;  // saved phase, 1 = last assigned true
  /// Coefficient-weighted votes from PB constraints for each variable's
  /// initial phase (positive = prefer true); seeds `polarity_` so the
  /// first descent leans toward satisfying the weighted constraints.
  std::vector<std::int64_t> phase_vote_;
  std::vector<int> level_;
  std::vector<std::int32_t> trail_pos_;
  /// false_at_[lit.index()]: trail position at which `lit` became false,
  /// kNotFalse while it is unassigned or true. Set by unchecked_enqueue,
  /// reset by cancel_until. A PB reason's literal justifies `p` iff
  /// false_at_[lit] < reason_cutoff(p) — one load per term, which is
  /// what conflict analysis and minimization test for every term of
  /// every PB reason they expand.
  std::vector<std::int32_t> false_at_;
  std::vector<Reason> reason_;
  std::vector<Lit> trail_;
  std::vector<std::int32_t> trail_lim_;
  std::size_t qhead_ = 0;

  ClauseAllocator ca_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::index()
  /// Inline binary-clause watchers, same indexing; propagation over these
  /// never touches the arena.
  std::vector<std::vector<BinWatcher>> bin_watches_;
  std::vector<ClauseRef> clauses_;
  std::vector<ClauseRef> learnts_;  // all tiers
  std::size_t num_local_ = 0;       // learnts currently in the local tier
  /// Glucose-cadence reduction state: the conflict count that triggers
  /// the next reduce_db, and how many reductions have run (the schedule
  /// stretches by kReduceInc each).
  std::int64_t next_reduce_at_ = kReduceBase;
  std::int64_t reduce_count_ = 0;
  /// Root trail size after the last simplify(); another round runs only
  /// once new root facts arrive.
  std::size_t simplified_trail_size_ = 0;

  std::deque<PbConstraint> pbs_;
  /// pb_watch_occs_[lit.index()] lists the constraints *watching* `lit`
  /// (hit when `lit` becomes false); the lists grow as watched prefixes
  /// extend.
  std::vector<std::vector<std::pair<PbConstraint*, std::int64_t>>>
      pb_watch_occs_;
  /// Total PB terms across pbs_, and the number of propagate-time
  /// prefix extensions since the last retighten_pb_watches(). The
  /// retighten fires once growth exceeds a quarter of the total —
  /// often enough to keep occurrence lists near the tight prefix,
  /// rarely enough that shrink/regrow churn amortizes away.
  std::size_t pb_terms_total_ = 0;
  std::size_t pb_watch_growth_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  ActivityHeap order_;

  /// Glucose restart state: circular window of the last kLbdWindow learnt
  /// LBDs (cleared on every restart) against the lifetime LBD average.
  std::vector<int> recent_lbds_;
  std::size_t recent_pos_ = 0;
  std::size_t recent_count_ = 0;
  std::int64_t recent_lbd_sum_ = 0;
  std::int64_t lifetime_lbd_sum_ = 0;
  std::int64_t lifetime_lbd_count_ = 0;
  /// Blocking-restart state: lifetime average of the trail size at
  /// conflict time (exact integer sum/count, so the block decision is
  /// deterministic).
  std::int64_t trail_size_sum_ = 0;
  std::int64_t trail_size_count_ = 0;
  /// Rephase state: polarity snapshot at the deepest trail seen this
  /// solve, the conflict count that triggers the next rephase, and the
  /// position in the best/inverted/original cycle.
  std::vector<char> best_phase_;
  std::size_t best_trail_size_ = 0;
  std::int64_t rephase_interval_ = kRephaseInterval;
  std::int64_t next_rephase_at_ = kRephaseInterval;
  int rephase_kind_ = 0;

  std::vector<char> seen_;  // scratch for analyze
  /// Reused scratch: the reason literals analyze/analyze_final expand,
  /// and add_clause's sorted copy of the incoming literals.
  std::vector<Lit> reason_lits_;
  std::vector<Lit> clause_tmp_;
  /// DFS stack + mark log for lit_redundant (recursive minimization).
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> minimize_toclear_;
  /// Remaining work budget (kMinimizeBudget) for the current conflict's
  /// recursive minimization.
  std::int64_t minimize_work_ = 0;
  /// Reused scratch for minimize_recursive (the hot path must not
  /// allocate per conflict).
  std::vector<Lit> minimize_collected_;
  /// Level-stamp scratch for compute_lbd (indexed by decision level).
  std::vector<std::int64_t> lbd_seen_;
  std::int64_t lbd_stamp_ = 0;
  std::vector<Lit> model_trail_;
  std::vector<char> model_;
  std::vector<Lit> unsat_core_;

  std::function<void(const std::vector<Lit>&)> learnt_hook_;
  std::function<void(const Stats&)> progress_;
  std::int64_t progress_every_ = 0;
  std::int64_t next_progress_at_ = 0;
  std::int64_t conflict_limit_ = 0;
  std::int64_t time_limit_ms_ = 0;
  std::int64_t conflicts_at_solve_start_ = 0;
  double deadline_seconds_ = 0;  // monotonic; 0 = none
  Stats stats_;
};

}  // namespace cs::minisolver
