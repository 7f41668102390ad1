#include "minisolver/solver.h"

#include <algorithm>
#include <chrono>

#include "util/error.h"
#include "util/fixed.h"

namespace cs::minisolver {

Solver::Solver() : order_(activity_) {}

Var Solver::new_var() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::kUndef);
  polarity_.push_back(0);
  phase_vote_.push_back(0);
  level_.push_back(0);
  trail_pos_.push_back(-1);
  false_at_.push_back(kNotFalse);
  false_at_.push_back(kNotFalse);
  reason_.push_back(Reason{});
  activity_.push_back(0.0);
  seen_.push_back(0);
  lbd_seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  bin_watches_.emplace_back();
  bin_watches_.emplace_back();
  pb_watch_occs_.emplace_back();
  pb_watch_occs_.emplace_back();
  order_.insert(v);
  return v;
}

void Solver::reserve_vars(std::size_t n) {
  assigns_.reserve(n);
  polarity_.reserve(n);
  phase_vote_.reserve(n);
  level_.reserve(n);
  trail_pos_.reserve(n);
  false_at_.reserve(2 * n);
  reason_.reserve(n);
  activity_.reserve(n);
  seen_.reserve(n);
  lbd_seen_.reserve(n);
  trail_.reserve(n);
  watches_.reserve(2 * n);
  bin_watches_.reserve(2 * n);
  pb_watch_occs_.reserve(2 * n);
  order_.reserve(n);
}

bool Solver::add_clause(std::span<const Lit> lits) {
  CS_ENSURE(decision_level() == 0, "add_clause above level 0");
  if (!ok_) return false;

  // Simplify: sort, dedup, drop false lits, detect tautology/satisfied.
  // The kept literals are compacted in place at the front of the scratch.
  std::vector<Lit>& tmp = clause_tmp_;
  tmp.assign(lits.begin(), lits.end());
  std::sort(tmp.begin(), tmp.end());
  tmp.erase(std::unique(tmp.begin(), tmp.end()), tmp.end());
  std::size_t keep = 0;
  for (std::size_t i = 0; i < tmp.size(); ++i) {
    const Lit l = tmp[i];
    CS_REQUIRE(l.valid() && static_cast<std::size_t>(l.var()) < num_vars(),
               "clause uses unknown variable");
    if (i + 1 < tmp.size() && tmp[i + 1] == ~l) return true;  // tautology
    if (value(l) == LBool::kTrue) return true;                // satisfied
    if (value(l) == LBool::kFalse) continue;                  // drop
    tmp[keep++] = l;
  }
  if (keep == 0) {
    ok_ = false;
    return false;
  }
  if (keep == 1) {
    unchecked_enqueue(tmp[0], Reason{});
    ok_ = propagate().is_none();
    return ok_;
  }
  const ClauseRef cref =
      ca_.alloc(std::span<const Lit>(tmp.data(), keep), /*learnt=*/false);
  clauses_.push_back(cref);
  attach_clause(cref);
  return true;
}

bool Solver::add_linear_ge(std::vector<PbTerm> terms, std::int64_t bound) {
  CS_ENSURE(decision_level() == 0, "add_linear_ge above level 0");
  if (!ok_) return false;
  for (const PbTerm& t : terms) {
    CS_REQUIRE(t.lit.valid() &&
                   static_cast<std::size_t>(t.lit.var()) < num_vars(),
               "PB constraint uses unknown variable");
  }

  PbConstraint pb = normalize_pb(std::move(terms), bound);
  if (pb.trivially_true()) return true;
  if (pb.trivially_false()) {
    ok_ = false;
    return false;
  }
  // A single-term constraint with a positive bound is just a unit clause.
  if (pb.size() == 1) return add_clause({pb.lits[0]});
  // Propagation compares watch sums against bound + max_coeff; with the
  // coefficient total checked by trivially_false, this is the last sum
  // that could leave 64 bits.
  const std::int64_t threshold = util::checked_add_i64(
      pb.bound, pb.max_coeff, "PB watch threshold");

  pbs_.push_back(std::move(pb));
  PbConstraint* stored = &pbs_.back();
  pb_terms_total_ += stored->size();
  for (std::size_t i = 0; i < stored->size(); ++i) {
    // Seed the initial phase toward satisfying this constraint. A vote
    // is a heuristic, not a bound, so it may saturate.
    const Lit l = stored->lits[i];
    const auto v = static_cast<std::size_t>(l.var());
    phase_vote_[v] = util::sat_add_i64(
        phase_vote_[v], l.is_neg() ? -stored->coeffs[i] : stored->coeffs[i]);
    polarity_[v] = phase_vote_[v] >= 0 ? 1 : 0;
  }

  // Build the initial watched prefix: watch descending-coefficient terms
  // until the non-false watched mass reaches bound + max_coeff (then no
  // falsification of an unwatched literal can matter).
  while (stored->num_watched < stored->size() &&
         stored->watch_sum < threshold) {
    const std::size_t i = stored->num_watched++;
    const Lit l = stored->lits[i];
    pb_watch_occs_[l.index()].push_back({stored, stored->coeffs[i]});
    if (value(l) != LBool::kFalse) stored->watch_sum += stored->coeffs[i];
  }
  if (stored->watch_sum < threshold) {
    // Fully watched: watch_sum is Σ coeff over the non-false terms, so
    // the constraint conflicts or propagates on its slack right away.
    if (stored->watch_sum < stored->bound) {
      ok_ = false;
      return false;
    }
    const std::int64_t slack = stored->watch_sum - stored->bound;
    for (std::size_t i = 0; i < stored->size(); ++i) {
      if (stored->coeffs[i] <= slack) break;  // descending coefficients
      if (value(stored->lits[i]) == LBool::kUndef)
        unchecked_enqueue(stored->lits[i], Reason{kRefUndef, stored});
    }
  }
  ok_ = propagate().is_none();
  return ok_;
}

bool Solver::add_linear_le(std::vector<PbTerm> terms, std::int64_t bound) {
  for (PbTerm& t : terms)
    t.coeff = util::checked_sub_i64(0, t.coeff, "PB coefficient");
  return add_linear_ge(std::move(terms),
                       util::checked_sub_i64(0, bound, "PB bound"));
}

void Solver::unchecked_enqueue(Lit p, Reason reason) {
  CS_ENSURE(value(p) == LBool::kUndef, "enqueue of assigned literal");
  const auto v = static_cast<std::size_t>(p.var());
  assigns_[v] = p.is_neg() ? LBool::kFalse : LBool::kTrue;
  polarity_[v] = p.is_neg() ? 0 : 1;
  level_[v] = decision_level();
  trail_pos_[v] = static_cast<std::int32_t>(trail_.size());
  false_at_[(~p).index()] = trail_pos_[v];
  reason_[v] = reason;
  trail_.push_back(p);
  // ~p just became false: drop it from every watched sum it is part of.
  for (auto& [pb, coeff] : pb_watch_occs_[(~p).index()])
    pb->watch_sum -= coeff;
}

void Solver::cancel_until(int target_level) {
  if (decision_level() <= target_level) return;
  const std::int32_t floor =
      trail_lim_[static_cast<std::size_t>(target_level)];
  for (std::int32_t i = static_cast<std::int32_t>(trail_.size()) - 1;
       i >= floor; --i) {
    const Lit p = trail_[static_cast<std::size_t>(i)];
    const auto v = static_cast<std::size_t>(p.var());
    assigns_[v] = LBool::kUndef;
    false_at_[(~p).index()] = kNotFalse;
    reason_[v] = Reason{};
    // Watches registered while ~p was already false never contributed to
    // watch_sum; once ~p is unassigned every watched occurrence
    // contributes, so the unconditional add is the exact inverse.
    for (auto& [pb, coeff] : pb_watch_occs_[(~p).index()])
      pb->watch_sum += coeff;
    order_.insert(p.var());
  }
  trail_.resize(static_cast<std::size_t>(floor));
  trail_lim_.resize(static_cast<std::size_t>(target_level));
  qhead_ = std::min(qhead_, trail_.size());
}

Solver::Reason Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    const Lit false_lit = ~p;

    // --- binary clauses watching ~p: no arena access on the fast path ---
    {
      const std::vector<BinWatcher>& bws = bin_watches_[p.index()];
      for (const BinWatcher& bw : bws) {
        const LBool val = value(bw.other);
        if (val == LBool::kFalse) return Reason{bw.cref, nullptr};
        if (val == LBool::kUndef)
          unchecked_enqueue(bw.other, Reason{bw.cref, nullptr});
      }
    }

    // --- long clauses watching ~p (registered under p) ------------------
    std::vector<Watcher>& ws = watches_[p.index()];
    std::size_t keep = 0;
    std::size_t i = 0;
    Reason conflict{};
    for (; i < ws.size(); ++i) {
      const Watcher w = ws[i];
      if (value(w.blocker) == LBool::kTrue) {
        ws[keep++] = w;
        continue;
      }
      Clause c = ca_.deref(w.cref);
      if (c.marked()) continue;  // lazily dropped by reduce_db/simplify
      // Normalize so the false watched literal sits at position 1.
      if (c[0] == false_lit) c.swap_lits(0, 1);
      CS_ENSURE(c[1] == false_lit, "watch invariant broken");
      const Lit first = c[0];
      if (value(first) == LBool::kTrue) {
        ws[keep++] = Watcher{w.cref, first};
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      const std::uint32_t size = c.size();
      for (std::uint32_t k = 2; k < size; ++k) {
        if (value(c[k]) != LBool::kFalse) {
          c.swap_lits(1, k);
          watches_[(~c[1]).index()].push_back(Watcher{w.cref, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflicting.
      ws[keep++] = Watcher{w.cref, first};
      if (value(first) == LBool::kFalse) {
        conflict = Reason{w.cref, nullptr};
        ++i;
        break;
      }
      unchecked_enqueue(first, Reason{w.cref, nullptr});
    }
    // Compact the remainder after an early conflict exit.
    for (; i < ws.size(); ++i) ws[keep++] = ws[i];
    ws.resize(keep);
    if (!conflict.is_none()) return conflict;

    // --- PB propagation over constraints watching ~p --------------------
    // Index-based loop: extending a watched prefix can append to this very
    // occurrence list (when the newly watched term's literal is ~p), so
    // the vector must be re-fetched every iteration.
    const std::size_t fidx = false_lit.index();
    for (std::size_t oi = 0; oi < pb_watch_occs_[fidx].size(); ++oi) {
      PbConstraint* pb = pb_watch_occs_[fidx][oi].first;
      const std::int64_t threshold = pb->bound + pb->max_coeff;
      if (pb->watch_sum >= threshold) continue;
      // Grow the watched prefix until the invariant is restored or every
      // term is watched. Terms already false join the watch list without
      // contributing to watch_sum.
      while (pb->num_watched < pb->size() && pb->watch_sum < threshold) {
        const std::size_t t = pb->num_watched++;
        const Lit l = pb->lits[t];
        pb_watch_occs_[l.index()].push_back({pb, pb->coeffs[t]});
        ++pb_watch_growth_;
        if (value(l) != LBool::kFalse) pb->watch_sum += pb->coeffs[t];
      }
      if (pb->watch_sum >= threshold) continue;
      // Fully watched: watch_sum == Σ coeff over non-false terms.
      if (pb->watch_sum < pb->bound) return Reason{kRefUndef, pb};
      const std::int64_t slack = pb->watch_sum - pb->bound;
      for (std::size_t t = 0; t < pb->size(); ++t) {
        if (pb->coeffs[t] <= slack) break;  // descending coefficients
        if (value(pb->lits[t]) == LBool::kUndef) {
          ++stats_.pb_propagations;
          unchecked_enqueue(pb->lits[t], Reason{kRefUndef, pb});
        }
      }
    }
  }
  return Reason{};
}

void Solver::reason_literals(const Reason& reason, Lit p,
                             std::vector<Lit>& out) const {
  out.clear();
  if (reason.cref != kRefUndef) {
    const Clause c = ca_.deref(reason.cref);
    const std::uint32_t size = c.size();
    for (std::uint32_t k = 0; k < size; ++k) {
      const Lit l = c[k];
      if (!(p.valid() && l == p)) out.push_back(l);
    }
    return;
  }
  CS_ENSURE(reason.pb != nullptr, "reason_literals on decision");
  // p itself is true (false_at_ == kNotFalse), so the cutoff drops it.
  const std::int32_t cutoff = reason_cutoff(p);
  for (const Lit l : reason.pb->lits)
    if (false_at_[l.index()] < cutoff) out.push_back(l);
}

void Solver::bump_var(Var v) {
  activity_[static_cast<std::size_t>(v)] += var_inc_;
  if (activity_[static_cast<std::size_t>(v)] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  order_.update(v);
}

void Solver::bump_clause(Clause c) {
  c.set_activity(c.activity() + static_cast<float>(clause_inc_));
  if (c.activity() > 1e20f) {
    for (const ClauseRef cr : learnts_) {
      Clause l = ca_.deref(cr);
      if (!l.marked()) l.set_activity(l.activity() * 1e-20f);
    }
    clause_inc_ *= 1e-20;
  }
}

int Solver::compute_lbd(const std::vector<Lit>& lits) {
  ++lbd_stamp_;
  int lbd = 0;
  for (const Lit l : lits) {
    const auto lev =
        static_cast<std::size_t>(level_[static_cast<std::size_t>(l.var())]);
    if (lev == 0) continue;
    if (lbd_seen_[lev] != lbd_stamp_) {
      lbd_seen_[lev] = lbd_stamp_;
      ++lbd;
    }
  }
  return lbd;
}

int Solver::compute_lbd(Clause c) {
  ++lbd_stamp_;
  int lbd = 0;
  const std::uint32_t size = c.size();
  for (std::uint32_t k = 0; k < size; ++k) {
    const auto lev = static_cast<std::size_t>(
        level_[static_cast<std::size_t>(c[k].var())]);
    if (lev == 0) continue;
    if (lbd_seen_[lev] != lbd_stamp_) {
      lbd_seen_[lev] = lbd_stamp_;
      ++lbd;
    }
  }
  return lbd;
}

void Solver::on_learnt_used(Clause c) {
  if (c.tier() == ClauseTier::kCore) return;
  const int lbd = compute_lbd(c);
  if (lbd < c.lbd()) {
    c.set_lbd(lbd);
    if (lbd <= kCoreLbd) {
      if (c.tier() == ClauseTier::kLocal) --num_local_;
      c.set_tier(ClauseTier::kCore);
      ++stats_.lbd_core;
      return;
    }
    if (lbd <= kTier2Lbd && c.tier() == ClauseTier::kLocal) {
      --num_local_;
      c.set_tier(ClauseTier::kTier2);
      ++stats_.lbd_tier2;
    }
  }
  if (c.tier() == ClauseTier::kTier2) c.set_touched(true);
}

int Solver::analyze(Reason conflict, std::vector<Lit>& learnt) {
  learnt.clear();
  learnt.push_back(kUndefLit);  // slot for the asserting literal

  int counter = 0;
  Lit p = kUndefLit;
  auto index = static_cast<std::int32_t>(trail_.size()) - 1;

  do {
    if (conflict.cref != kRefUndef) {
      Clause c = ca_.deref(conflict.cref);
      if (c.learnt()) {
        bump_clause(c);
        on_learnt_used(c);
      }
      reason_literals(conflict, p, reason_lits_);
    } else {
      CS_ENSURE(conflict.pb != nullptr, "analyze reached a decision");
      if (conflict.pb->expanded_in_conflict != stats_.conflicts) {
        conflict.pb->expanded_in_conflict = stats_.conflicts;
        reason_literals(conflict, p, reason_lits_);
      } else {
        // The walk goes backwards, so a constraint met again in this
        // conflict justifies an earlier trail literal: its literals are
        // a subset of the first expansion's (false before an earlier
        // cutoff). Each is still seen_ (the walk only clears marks at
        // or above p) or sits at level 0, so the repeat would mark,
        // bump and count nothing.
        reason_lits_.clear();
      }
    }
    for (const Lit q : reason_lits_) {
      const auto v = static_cast<std::size_t>(q.var());
      if (seen_[v] || level_[v] == 0) continue;
      seen_[v] = 1;
      bump_var(q.var());
      if (level_[v] >= decision_level())
        ++counter;
      else
        learnt.push_back(q);
    }
    // Walk back to the next marked trail literal.
    while (!seen_[static_cast<std::size_t>(
        trail_[static_cast<std::size_t>(index)].var())])
      --index;
    p = trail_[static_cast<std::size_t>(index)];
    --index;
    conflict = reason_[static_cast<std::size_t>(p.var())];
    seen_[static_cast<std::size_t>(p.var())] = 0;
    --counter;
  } while (counter > 0);
  learnt[0] = ~p;

  // Conflict-clause minimization: drop literals implied by the rest of
  // the clause through their (clause or PB) reasons. Sound because reason
  // literals always precede the justified literal on the trail, so
  // justifications cannot be circular. Clears every seen_ bit analyze set
  // (plus any lit_redundant added).
  const std::size_t before_min = learnt.size();
  minimize_recursive(learnt);
  stats_.minimized_literals +=
      static_cast<std::int64_t>(before_min - learnt.size());

  if (learnt.size() == 1) return 0;
  // Move the literal with the highest level to position 1.
  std::size_t max_i = 1;
  for (std::size_t i = 2; i < learnt.size(); ++i) {
    if (level_[static_cast<std::size_t>(learnt[i].var())] >
        level_[static_cast<std::size_t>(learnt[max_i].var())])
      max_i = i;
  }
  std::swap(learnt[1], learnt[max_i]);
  return level_[static_cast<std::size_t>(learnt[1].var())];
}

bool Solver::lit_redundant(Lit p0, std::uint32_t abstract_levels) {
  // Iterative DFS through reason chains. seen_ doubles as the visited
  // set: entry state has it set exactly for the learnt-clause vars, and
  // every var this probe marks is logged in minimize_toclear_ so a
  // failed probe can roll back to its own start (marks from successful
  // probes stay — they are proven redundant-covered and memoize later
  // probes, exactly MiniSat's analyze_toclear discipline).
  //
  // Reasons are walked inline rather than through reason_literals: PB
  // reasons expand to every false term of their constraint (hundreds of
  // literals here), and most probes die on the first blocking decision —
  // materializing the full expansion first would pay the whole walk to
  // learn that.
  analyze_stack_.assign(1, p0);
  const std::size_t top = minimize_toclear_.size();
  // The per-literal DFS step: skip already-covered vars, descend through
  // propagated vars inside the clause's levels, fail on anything else.
  const auto step = [&](Lit l) -> bool {
    const auto v = static_cast<std::size_t>(l.var());
    if (seen_[v] || level_[v] == 0) return true;
    if (!reason_[v].is_none() &&
        (abstract_level(l.var()) & abstract_levels) != 0) {
      seen_[v] = 1;
      analyze_stack_.push_back(~l);  // the trail literal for l's var
      minimize_toclear_.push_back(l);
      return true;
    }
    return false;  // a blocking decision/level: p0 is not redundant
  };
  while (!analyze_stack_.empty()) {
    const Lit p = analyze_stack_.back();
    analyze_stack_.pop_back();
    const Reason& r = reason_[static_cast<std::size_t>(p.var())];
    bool blocked = minimize_work_ <= 0;  // budget exhausted = blocked
    if (!blocked && r.cref != kRefUndef) {
      const Clause c = ca_.deref(r.cref);
      const std::uint32_t size = c.size();
      minimize_work_ -= size;
      for (std::uint32_t k = 0; k < size && !blocked; ++k) {
        const Lit l = c[k];
        if (l != p && !step(l)) blocked = true;
      }
    } else if (!blocked) {
      const std::int32_t cutoff = reason_cutoff(p);
      minimize_work_ -= static_cast<std::int64_t>(r.pb->size());
      for (const Lit l : r.pb->lits) {
        if (false_at_[l.index()] < cutoff && !step(l)) {
          blocked = true;
          break;
        }
      }
    }
    if (blocked) {
      // Undo only this probe's marks.
      for (std::size_t j = top; j < minimize_toclear_.size(); ++j)
        seen_[static_cast<std::size_t>(minimize_toclear_[j].var())] = 0;
      minimize_toclear_.resize(top);
      return false;
    }
  }
  return true;
}

void Solver::minimize_recursive(std::vector<Lit>& learnt) {
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i)
    abstract_levels |= abstract_level(learnt[i].var());
  minimize_collected_.assign(learnt.begin() + 1, learnt.end());
  minimize_toclear_.clear();
  minimize_work_ = kMinimizeBudget;
  std::size_t keep = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    const Lit q = learnt[i];
    const Reason& r = reason_[static_cast<std::size_t>(q.var())];
    if (r.is_none() || minimize_work_ <= 0 ||
        !lit_redundant(~q, abstract_levels))
      learnt[keep++] = q;
  }
  learnt.resize(keep);
  for (const Lit l : minimize_collected_)
    seen_[static_cast<std::size_t>(l.var())] = 0;
  for (const Lit l : minimize_toclear_)
    seen_[static_cast<std::size_t>(l.var())] = 0;
  minimize_toclear_.clear();
}

void Solver::analyze_final(Lit failed_assumption) {
  unsat_core_.clear();
  unsat_core_.push_back(failed_assumption);
  if (decision_level() == 0) return;

  seen_[static_cast<std::size_t>(failed_assumption.var())] = 1;
  for (auto i = static_cast<std::int32_t>(trail_.size()) - 1;
       i >= trail_lim_[0]; --i) {
    const Lit p = trail_[static_cast<std::size_t>(i)];
    const auto v = static_cast<std::size_t>(p.var());
    if (!seen_[v]) continue;
    const Reason& r = reason_[v];
    if (r.is_none()) {
      // A decision inside the assumption prefix is an assumption literal.
      unsat_core_.push_back(p);
    } else {
      reason_literals(r, p, reason_lits_);
      for (const Lit q : reason_lits_)
        if (level_[static_cast<std::size_t>(q.var())] > 0)
          seen_[static_cast<std::size_t>(q.var())] = 1;
    }
    seen_[v] = 0;
  }
  seen_[static_cast<std::size_t>(failed_assumption.var())] = 0;
}

Lit Solver::pick_branch_lit() {
  while (!order_.empty()) {
    const Var v = order_.pop_max();
    if (value(v) == LBool::kUndef) {
      return polarity_[static_cast<std::size_t>(v)] ? Lit::pos(v)
                                                    : Lit::neg(v);
    }
  }
  return kUndefLit;
}

void Solver::attach_clause(ClauseRef cref) {
  const Clause c = ca_.deref(cref);
  CS_ENSURE(c.size() >= 2, "attach of short clause");
  const Lit l0 = c[0];
  const Lit l1 = c[1];
  if (c.size() == 2) {
    bin_watches_[(~l0).index()].push_back(BinWatcher{l1, cref});
    bin_watches_[(~l1).index()].push_back(BinWatcher{l0, cref});
  } else {
    watches_[(~l0).index()].push_back(Watcher{cref, l1});
    watches_[(~l1).index()].push_back(Watcher{cref, l0});
  }
}

void Solver::detach_long_eager(ClauseRef cref, Lit l0, Lit l1) {
  for (const Lit l : {l0, l1}) {
    std::vector<Watcher>& ws = watches_[(~l).index()];
    std::erase_if(ws, [cref](const Watcher& w) { return w.cref == cref; });
  }
}

void Solver::reduce_db() {
  // Glucose-style tiered reduction: core clauses are permanent, tier2
  // clauses that sat out the epoch demote to local, and the least-active
  // half of the (unlocked, non-binary) local tier is deleted.
  const auto locked = [&](ClauseRef cr, const Clause& c) {
    const Lit l0 = c[0];
    const auto v = static_cast<std::size_t>(l0.var());
    return value(l0) == LBool::kTrue && reason_[v].cref == cr;
  };
  std::vector<ClauseRef> locals;
  locals.reserve(num_local_);
  for (const ClauseRef cr : learnts_) {
    const Clause c = ca_.deref(cr);
    if (c.marked() || c.tier() != ClauseTier::kLocal) continue;
    if (c.size() <= 2 || locked(cr, c)) continue;
    locals.push_back(cr);
  }
  std::sort(locals.begin(), locals.end(),
            [&](ClauseRef a, ClauseRef b) {
              const float aa = ca_.deref(a).activity();
              const float ab = ca_.deref(b).activity();
              if (aa != ab) return aa < ab;
              return a < b;  // deterministic tie-break (arena order = age)
            });
  const std::size_t to_delete = locals.size() / 2;
  for (std::size_t i = 0; i < to_delete; ++i) {
    ca_.free_clause(locals[i]);
    ++stats_.deleted_clauses;
    --num_local_;
  }
  for (const ClauseRef cr : learnts_) {
    Clause c = ca_.deref(cr);
    if (c.marked() || c.tier() != ClauseTier::kTier2) continue;
    if (c.touched()) {
      c.set_touched(false);
    } else {
      c.set_tier(ClauseTier::kLocal);
      ++num_local_;
      ++stats_.lbd_local;
    }
  }
  std::erase_if(learnts_, [this](ClauseRef cr) {
    return ca_.deref(cr).marked();
  });
  maybe_gc();
}

void Solver::simplify() {
  CS_ENSURE(decision_level() == 0, "simplify above level 0");
  if (!ok_) return;
  // Root-level assignments are permanent and their reasons are never
  // examined again (analyze/analyze_final skip level 0), so clear them:
  // no clause stays locked and the GC has no root reasons to chase.
  for (const Lit p : trail_)
    reason_[static_cast<std::size_t>(p.var())] = Reason{};

  // Binary watch lists that hold a freed clause's watchers.
  std::vector<std::size_t> stale_bin_lists;
  const auto process = [&](std::vector<ClauseRef>& list, bool learnt_list) {
    std::size_t keep_n = 0;
    for (const ClauseRef cr : list) {
      Clause c = ca_.deref(cr);
      if (c.marked()) continue;
      bool satisfied = false;
      const std::uint32_t size = c.size();
      for (std::uint32_t k = 0; k < size; ++k) {
        if (value(c[k]) == LBool::kTrue) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) {
        if (size == 2) {
          stale_bin_lists.push_back((~c[0]).index());
          stale_bin_lists.push_back((~c[1]).index());
        }
        if (learnt_list && c.tier() == ClauseTier::kLocal) --num_local_;
        ca_.free_clause(cr);
        ++stats_.deleted_clauses;
        continue;
      }
      // Strip root-false literals. At a stable root the two watched
      // positions of a non-satisfied clause are unassigned, so false
      // literals only occur at positions >= 2.
      std::uint32_t n = size;
      for (std::uint32_t k = 2; k < n;) {
        if (value(c[k]) == LBool::kFalse) {
          c.swap_lits(k, n - 1);
          --n;
        } else {
          ++k;
        }
      }
      if (n != size) {
        ca_.note_shrink(size - n);
        const Lit w0 = c[0];
        const Lit w1 = c[1];
        c.shrink_to(n);
        if (n == 2) {
          // The long-list watchers are stale; move to the binary lists.
          // Binary clauses are never reduced, so promote learnts to core.
          detach_long_eager(cr, w0, w1);
          attach_clause(cr);
          if (learnt_list && c.tier() != ClauseTier::kCore) {
            if (c.tier() == ClauseTier::kLocal) --num_local_;
            c.set_tier(ClauseTier::kCore);
            c.set_lbd(std::min(c.lbd(), 2));
            ++stats_.lbd_core;
          }
        }
      }
      list[keep_n++] = cr;
    }
    list.resize(keep_n);
  };
  process(clauses_, /*learnt_list=*/false);
  process(learnts_, /*learnt_list=*/true);
  // One order-preserving pass per affected list drops the freed binary
  // clauses' watchers; it must precede the GC, which relocates every
  // binary watcher it finds.
  std::sort(stale_bin_lists.begin(), stale_bin_lists.end());
  stale_bin_lists.erase(
      std::unique(stale_bin_lists.begin(), stale_bin_lists.end()),
      stale_bin_lists.end());
  for (const std::size_t i : stale_bin_lists)
    std::erase_if(bin_watches_[i], [this](const BinWatcher& bw) {
      return ca_.deref(bw.cref).marked();
    });
  ++stats_.db_simplify_rounds;
  simplified_trail_size_ = trail_.size();
  maybe_gc();
}

void Solver::maybe_gc() {
  if (ca_.wasted_words() * 5 > ca_.size_words()) garbage_collect();
}

void Solver::retighten_pb_watches() {
  // Growth-triggered: scanning every constraint pays off only once the
  // prefixes have inflated measurably past tight; below the threshold
  // the shrink/regrow churn costs more than the shorter lists save.
  if (pb_watch_growth_ * 4 <= pb_terms_total_) return;
  CS_ENSURE(decision_level() == 0, "retighten above the root");
  for (PbConstraint& pb : pbs_) {
    // Recompute the tight prefix under the root assignment. Between
    // episodes every constraint satisfies the watch invariant
    // (watch_sum >= threshold or fully watched), so the tight prefix is
    // never longer than the current one — shrinking needs no new
    // occurrence registrations.
    const std::int64_t threshold = pb.bound + pb.max_coeff;
    std::size_t tight = 0;
    std::int64_t sum = 0;
    while (tight < pb.size() && sum < threshold) {
      if (value(pb.lits[tight]) != LBool::kFalse) sum += pb.coeffs[tight];
      ++tight;
    }
    if (tight >= pb.num_watched) continue;
    // Drop the stale tail's occurrence entries: normalize_pb merges
    // duplicate variables, so each (constraint, literal) pair has
    // exactly one entry.
    for (std::size_t i = tight; i < pb.num_watched; ++i) {
      auto& occ = pb_watch_occs_[pb.lits[i].index()];
      for (std::size_t j = 0; j < occ.size(); ++j) {
        if (occ[j].first == &pb) {
          occ[j] = occ.back();
          occ.pop_back();
          break;
        }
      }
    }
    pb.num_watched = tight;
    pb.watch_sum = sum;
  }
  pb_watch_growth_ = 0;
}

void Solver::garbage_collect() {
  ClauseAllocator fresh;
  fresh.reserve_words(ca_.live_words());
  // Watcher lists: purge entries for deleted clauses, relocate the rest.
  for (std::vector<Watcher>& ws : watches_) {
    std::size_t keep = 0;
    for (Watcher& w : ws) {
      if (ca_.deref(w.cref).marked()) continue;
      ca_.reloc(w.cref, fresh);
      ws[keep++] = w;
    }
    ws.resize(keep);
  }
  // Binary clauses are only ever freed by simplify, which drops their
  // watchers before it collects, so every binary watcher is live.
  for (std::vector<BinWatcher>& bws : bin_watches_) {
    for (BinWatcher& bw : bws) ca_.reloc(bw.cref, fresh);
  }
  // Reasons of current trail literals (reduce_db never frees locked
  // clauses; root reasons are cleared by simplify before it frees).
  for (const Lit p : trail_) {
    Reason& r = reason_[static_cast<std::size_t>(p.var())];
    if (r.cref != kRefUndef) ca_.reloc(r.cref, fresh);
  }
  const auto reloc_list = [&](std::vector<ClauseRef>& list) {
    std::size_t keep = 0;
    for (ClauseRef& cr : list) {
      if (ca_.deref(cr).marked()) continue;
      ca_.reloc(cr, fresh);
      list[keep++] = cr;
    }
    list.resize(keep);
  };
  reloc_list(clauses_);
  reloc_list(learnts_);
  ca_ = std::move(fresh);
}

Solver::Result Solver::search(const std::vector<Lit>& assumptions) {
  std::vector<Lit> learnt;

  while (true) {
    const Reason conflict = propagate();
    if (!conflict.is_none()) {
      ++stats_.conflicts;
      if (progress_every_ > 0 && stats_.conflicts >= next_progress_at_) {
        next_progress_at_ = stats_.conflicts + progress_every_;
        progress_(stats_);
      }
      if (decision_level() == 0) {
        ok_ = false;
        unsat_core_.clear();
        return Result::kUnsat;
      }
      note_conflict_trail(trail_.size());
      const int bt_level = analyze(conflict, learnt);
      if (learnt_hook_) learnt_hook_(learnt);
      cancel_until(bt_level);
      if (learnt.size() == 1) {
        note_learnt_lbd(1);
        unchecked_enqueue(learnt[0], Reason{});
      } else {
        const int lbd = compute_lbd(learnt);
        note_learnt_lbd(lbd);
        const ClauseRef cref = ca_.alloc(learnt, /*learnt=*/true);
        Clause c = ca_.deref(cref);
        c.set_lbd(lbd);
        if (lbd <= kCoreLbd) {
          c.set_tier(ClauseTier::kCore);
          ++stats_.lbd_core;
        } else if (lbd <= kTier2Lbd) {
          c.set_tier(ClauseTier::kTier2);
          ++stats_.lbd_tier2;
        } else {
          c.set_tier(ClauseTier::kLocal);
          ++num_local_;
          ++stats_.lbd_local;
        }
        learnts_.push_back(cref);
        ++stats_.learned_clauses;
        bump_clause(c);
        attach_clause(cref);
        unchecked_enqueue(learnt[0], Reason{cref, nullptr});
      }
      decay_var_activity();
      decay_clause_activity();
      continue;
    }

    // Best-phase tracking for rephasing: snapshot the saved polarities
    // whenever the trail reaches a new high-water mark (a ~3% growth
    // threshold bounds the O(vars) copies to a logarithmic count).
    if (trail_.size() > best_trail_size_ + best_trail_size_ / 32) {
      best_trail_size_ = trail_.size();
      best_phase_.assign(polarity_.begin(), polarity_.end());
    }

    if (glucose_restart_due()) {
      ++stats_.restarts;
      recent_count_ = 0;
      recent_pos_ = 0;
      recent_lbd_sum_ = 0;
      cancel_until(0);
      return Result::kUnknown;  // restart
    }
    if (out_of_budget()) {
      cancel_until(0);
      return Result::kUnknown;
    }
    // Clause-DB reduction on Glucose's conflict schedule (first at
    // kReduceBase conflicts, then every kReduceBase + kReduceInc·k):
    // aggressive deletion keeps the local tier small, so propagation
    // stays fast across long capped burns.
    if (stats_.conflicts >= next_reduce_at_) {
      reduce_db();
      ++reduce_count_;
      next_reduce_at_ =
          stats_.conflicts + kReduceBase + kReduceInc * reduce_count_;
    }

    // Extend with assumptions first, then heuristics.
    Lit next = kUndefLit;
    while (decision_level() < static_cast<int>(assumptions.size())) {
      const Lit a =
          assumptions[static_cast<std::size_t>(decision_level())];
      if (value(a) == LBool::kTrue) {
        new_decision_level();  // dummy level keeps the indexing aligned
      } else if (value(a) == LBool::kFalse) {
        analyze_final(a);
        return Result::kUnsat;
      } else {
        next = a;
        break;
      }
    }
    if (!next.valid()) {
      next = pick_branch_lit();
      if (!next.valid()) {
        // Full assignment: record the model.
        model_.assign(num_vars(), 0);
        for (std::size_t v = 0; v < num_vars(); ++v)
          model_[v] = (assigns_[v] == LBool::kTrue) ? 1 : 0;
        return Result::kSat;
      }
      ++stats_.decisions;
    }
    new_decision_level();
    unchecked_enqueue(next, Reason{});
  }
}

void Solver::note_learnt_lbd(int lbd) {
  ++lifetime_lbd_count_;
  lifetime_lbd_sum_ += lbd;
  if (recent_lbds_.size() < kLbdWindow) recent_lbds_.resize(kLbdWindow, 0);
  if (recent_count_ == kLbdWindow)
    recent_lbd_sum_ -= recent_lbds_[recent_pos_];
  else
    ++recent_count_;
  recent_lbds_[recent_pos_] = lbd;
  recent_lbd_sum_ += lbd;
  recent_pos_ = (recent_pos_ + 1) % kLbdWindow;
}

void Solver::note_conflict_trail(std::size_t trail_size) {
  ++trail_size_count_;
  trail_size_sum_ += static_cast<std::int64_t>(trail_size);
  if (trail_size_count_ < kBlockingMinConflicts) return;
  if (recent_count_ < kLbdWindow) return;
  // trail > (kBlockingNum/kBlockingDen) * avg, cross-multiplied.
  if (static_cast<std::int64_t>(trail_size) * trail_size_count_ *
          kBlockingDen >
      trail_size_sum_ * kBlockingNum) {
    recent_count_ = 0;
    recent_pos_ = 0;
    recent_lbd_sum_ = 0;
  }
}

bool Solver::glucose_restart_due() const {
  if (recent_count_ < kLbdWindow) return false;
  // recent_avg > (kGlucoseNum/kGlucoseDen) * lifetime_avg, cross-
  // multiplied to stay in exact integer arithmetic (deterministic).
  return recent_lbd_sum_ * lifetime_lbd_count_ * kGlucoseDen >
         lifetime_lbd_sum_ * static_cast<std::int64_t>(kLbdWindow) *
             kGlucoseNum;
}

void Solver::do_rephase() {
  const std::size_t n = num_vars();
  switch (rephase_kind_ % 3) {
    case 0:  // best: the phases at the deepest trail seen this solve
      if (best_trail_size_ > 0 && best_phase_.size() == n)
        polarity_ = best_phase_;
      break;
    case 1:  // inverted: kick the search out of its current basin
      for (char& p : polarity_) p ^= 1;
      break;
    case 2:  // original: the coefficient-weighted PB phase votes
      for (std::size_t v = 0; v < n; ++v)
        polarity_[v] = phase_vote_[v] >= 0 ? 1 : 0;
      break;
  }
  ++rephase_kind_;
  ++stats_.rephases;
  rephase_interval_ *= 2;
  next_rephase_at_ = stats_.conflicts + rephase_interval_;
}

Solver::Result Solver::solve(const std::vector<Lit>& assumptions) {
  unsat_core_.clear();
  if (!ok_) return Result::kUnsat;
  for (const Lit a : assumptions) {
    CS_REQUIRE(a.valid() && static_cast<std::size_t>(a.var()) < num_vars(),
               "assumption uses unknown variable");
  }

  conflicts_at_solve_start_ = stats_.conflicts;
  deadline_seconds_ = 0;
  if (time_limit_ms_ > 0) {
    const auto now = std::chrono::duration<double>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count();
    deadline_seconds_ = now + static_cast<double>(time_limit_ms_) / 1000.0;
  }

  if (trail_.size() > simplified_trail_size_) simplify();
  if (!ok_) return Result::kUnsat;
  retighten_pb_watches();

  // Each solve races a fresh assumption space: restart the LBD window,
  // the best-trail high-water mark, and the rephase schedule.
  recent_count_ = 0;
  recent_pos_ = 0;
  recent_lbd_sum_ = 0;
  best_trail_size_ = 0;
  rephase_interval_ = kRephaseInterval;
  next_rephase_at_ = stats_.conflicts + rephase_interval_;

  Result result = Result::kUnknown;
  while (result == Result::kUnknown) {
    result = search(assumptions);
    if (result == Result::kUnknown) {
      if (out_of_budget()) break;
      // Between restarts the solver sits at the root: fold any new
      // root-level facts into the clause database, and shrink the PB
      // watch prefixes the episode's falsification churn inflated.
      if (trail_.size() > simplified_trail_size_) simplify();
      retighten_pb_watches();
      if (stats_.conflicts >= next_rephase_at_) do_rephase();
    }
  }
  cancel_until(0);
  return result;
}

bool Solver::out_of_budget() const {
  if (conflict_limit_ != 0 &&
      stats_.conflicts - conflicts_at_solve_start_ >= conflict_limit_)
    return true;
  if (deadline_seconds_ > 0) {
    const auto now = std::chrono::duration<double>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count();
    if (now >= deadline_seconds_) return true;
  }
  return false;
}

bool Solver::model_value(Var v) const {
  CS_ENSURE(static_cast<std::size_t>(v) < model_.size(),
            "model_value before a SAT result");
  return model_[static_cast<std::size_t>(v)] != 0;
}

bool Solver::pb_bookkeeping_ok() const {
  for (const PbConstraint& pb : pbs_) {
    if (pb.num_watched > pb.size()) return false;
    std::int64_t expect = 0;
    for (std::size_t i = 0; i < pb.num_watched; ++i)
      if (value(pb.lits[i]) != LBool::kFalse) expect += pb.coeffs[i];
    if (expect != pb.watch_sum) return false;
  }
  return true;
}

Solver::MemoryBreakdown Solver::memory_breakdown() const {
  MemoryBreakdown mb;
  mb.arena_capacity_bytes = ca_.capacity_words() * sizeof(std::uint32_t);
  mb.arena_size_bytes = ca_.size_words() * sizeof(std::uint32_t);
  mb.arena_wasted_bytes = ca_.wasted_words() * sizeof(std::uint32_t);
  for (const auto& ws : watches_)
    mb.watcher_bytes += ws.capacity() * sizeof(Watcher);
  mb.watcher_bytes += watches_.capacity() * sizeof(std::vector<Watcher>);
  for (const auto& bws : bin_watches_)
    mb.binary_watcher_bytes += bws.capacity() * sizeof(BinWatcher);
  mb.binary_watcher_bytes +=
      bin_watches_.capacity() * sizeof(std::vector<BinWatcher>);
  for (const PbConstraint& pb : pbs_)
    mb.pb_bytes += sizeof(PbConstraint) + pb.lits.capacity() * sizeof(Lit) +
                   pb.coeffs.capacity() * sizeof(std::int64_t);
  for (const auto& occ : pb_watch_occs_)
    mb.pb_occ_bytes +=
        occ.capacity() * sizeof(std::pair<PbConstraint*, std::int64_t>);
  mb.pb_occ_bytes +=
      pb_watch_occs_.capacity() *
      sizeof(std::vector<std::pair<PbConstraint*, std::int64_t>>);
  mb.var_bytes =
      assigns_.capacity() * sizeof(LBool) + polarity_.capacity() +
      phase_vote_.capacity() * sizeof(std::int64_t) +
      level_.capacity() * sizeof(int) +
      trail_pos_.capacity() * sizeof(std::int32_t) +
      false_at_.capacity() * sizeof(std::int32_t) +
      reason_.capacity() * sizeof(Reason) +
      activity_.capacity() * sizeof(double) + seen_.capacity() +
      lbd_seen_.capacity() * sizeof(std::int64_t) +
      trail_.capacity() * sizeof(Lit);
  mb.scratch_bytes =
      (reason_lits_.capacity() + clause_tmp_.capacity() +
       analyze_stack_.capacity() + minimize_toclear_.capacity() +
       minimize_collected_.capacity()) *
      sizeof(Lit);
  return mb;
}

std::size_t Solver::memory_estimate_bytes() const {
  return memory_breakdown().total();
}

}  // namespace cs::minisolver
