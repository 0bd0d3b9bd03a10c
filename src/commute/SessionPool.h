//===- commute/SessionPool.h - Warm and cold solver sessions ----*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discharge layer between the symbolic engines and the smt/ stack.
///
/// The six testing methods of one (family, op-pair) — before/between/after
/// x soundness/completeness (Fig. 2-2) — share almost their entire
/// symbolic-execution prefix. A MethodPlan captures one method's VCs in
/// three layers:
///
///  * Common:  the pair-shared prefix (argument/element well-formedness),
///             identical across the pair's methods;
///  * Scoped:  the method's own prefix (for the single-VC families, the
///             whole VC body), asserted under a per-method *selector
///             literal* so several methods can coexist in one clause
///             database without contaminating each other;
///  * Splits:  the VC instances (one per ArrayList case split), each a
///             set of labeled assumption formulas.
///
/// Every warm discharge runs on a CatalogSession, a scope tree of one
/// shape: the catalog-common prefix is session base, pair scopes open
/// directly beneath it, and method scopes nest inside their pair's. The
/// engine (SymbolicEngine::verifyPair) opens one session per op-pair, and
/// that sole pair sits at the root with no selector of its own: the
/// pair-common prefix is asserted once as base, each method's Scoped
/// prefix under its method selector, and every split is checked under
/// (selector + split) assumptions. The verification service drives one
/// multi-pair session per shard, opening and retiring pair scopes as
/// requests arrive. Tseitin definitions, theory bridges, and learned
/// clauses are shared by everything a session discharges.
///
/// The cold baseline, OneShot, runs through dischargeCold() instead: a
/// fresh SmtSession per split, with the plan's whole prefix asserted as
/// base.
///
/// After an Unsat check, the solver's assumption core is mapped back to the
/// labels of the assumptions it names (selector / split / hint literals),
/// so a verified method records which assumption subset its proof actually
/// needed — the first step toward §5.2.1-style ProofHints minimization.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_COMMUTE_SESSIONPOOL_H
#define SEMCOMM_COMMUTE_SESSIONPOOL_H

#include "smt/SmtSolver.h"

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace semcomm {

/// How the engine discharges the VCs of testing methods.
enum class SolveMode : uint8_t {
  /// A fresh solver session per VC (the historical behavior; cold start
  /// every split): the independent oracle the warm modes are checked
  /// against, and the baseline the perf benches compare against.
  OneShot,
  /// Formerly one cold session per testing method. Every warm mode beat
  /// it, so the driver rejects it; the member stays only because the
  /// frozen perfbench parser names it. The engine treats it as any warm
  /// mode.
  PerMethod,
  /// One warm CatalogSession per (family, op-pair): the pair sits at the
  /// session root, so all six methods share one solver under per-method
  /// selector literals and no pair selector. The default.
  SharedPair,
  /// Formerly one warm session per family, with pair scopes retired as
  /// they finished. It capped the driver at one session per family and
  /// was slower than SharedPair at four threads, so the driver rejects it;
  /// the member stays only because the frozen perfbench parser names it.
  SharedFamily,
  /// Formerly one warm session for the whole catalog at one thread; the
  /// driver rejects it and the member stays only for the perfbench parser,
  /// like SharedFamily. The engine treats both as any warm mode.
  SharedCatalog,
};

const char *solveModeName(SolveMode M);

/// Outcome of symbolically verifying one testing method.
struct SymbolicResult {
  bool Verified = false;
  /// When not verified: whether the solver produced a (possibly spurious)
  /// countermodel or ran out of budget.
  SatResult LastOutcome = SatResult::Unknown;
  uint64_t NumVcs = 0;        ///< VC instances discharged (ArrayList splits).
  int64_t SatConflicts = 0;   ///< Total CDCL conflicts.
  int64_t MaxVcConflicts = 0; ///< Largest single-split conflict count.
  /// Clauses alive in the method's warm session after the last split
  /// (Tseitin definitions + bridges + learned); 0 in one-shot mode, where
  /// nothing is carried over. In SharedPair mode this is the *pair*
  /// session's clause count at the time the method finished.
  uint64_t RetainedClauses = 0;
  /// Clause-database GC activity attributable to this method's discharge.
  uint64_t DbReductions = 0;
  uint64_t ReclaimedClauses = 0;
  /// Union, over all Unsat splits, of the labels of the assumptions the
  /// proofs actually needed (selector / split literals; insertion order,
  /// deduplicated). Empty when every refutation followed from the base
  /// alone.
  std::vector<std::string> CoreLabels;
  std::string Countermodel; ///< Diagnostic atoms of a failed proof.

  /// Certification (populated only when the session certifies): the proof
  /// tags of this method's Unsat verdicts, in discharge order — the keys
  /// its certificates carry in the session's proof trace.
  std::vector<std::string> ProofQueryTags;
  /// Certified query count (== ProofQueryTags.size(); kept separately so
  /// the driver's JSON row needs no recount).
  uint64_t ProofQueries = 0;
  /// Checker database high-water mark of the certifying session (a
  /// session-level number, duplicated per method for per-job reporting).
  uint64_t ProofClauses = 0;
  /// True when the independent checker verified every one of this
  /// method's Unsat verdicts. Engines backfill it after the session's
  /// finishCertification(); false when not certifying.
  bool ProofChecked = false;
};

/// One labeled assumption formula (the label names it in unsat cores).
struct TaggedAssumption {
  ExprRef E = nullptr;
  std::string Label;
};

/// One VC instance of a testing method.
struct VcSplit {
  std::vector<TaggedAssumption> Assumed;
  /// Diagnostic prefix for failures, e.g. "n=2 i1=0 i2=1"; empty for the
  /// single-VC families.
  std::string Label;
};

/// The symbolic-discharge plan of one testing method.
struct MethodPlan {
  /// Paper-style method name; also names the selector literal.
  std::string Name;
  /// Pair-common prefix: asserted once per warm session (deduplicated
  /// across the plans discharged through it).
  std::vector<ExprRef> Common;
  /// Method-own prefix: asserted under the method's selector literal in
  /// the warm modes, as plain base in the cold ones.
  std::vector<TaggedAssumption> Scoped;
  /// The VC instances, discharged in order; discharge stops at the first
  /// failure.
  std::vector<VcSplit> Splits;
  /// True when the plan builder met an atom shape outside the bounded
  /// lowering's fragment; the method then reports unverified after its
  /// (truncated) splits run.
  bool Unsupported = false;
  std::string UnsupportedNote;
};

/// The discharge plans of one (family, op-pair): the six testing methods
/// in (kind x role) enumeration order. A lazy catalog plan records only
/// the Key and materializes the methods just before discharge.
struct PairPlan {
  std::string Key; ///< "op1,op2"; unique within its family only.
  std::vector<MethodPlan> Methods;
};

/// Lifetime statistics of one catalog-level session. The variable numbers
/// come from the solver's recycling accounting.
struct CatalogSessionStats {
  uint64_t PairsOpened = 0; ///< Pair scopes allocated.
  /// Pair scopes retired (retirePair calls on a live pair; a root pair
  /// counts although it has no scope of its own to evict).
  uint64_t PairsRetired = 0;
  /// Common-prefix assertions actually issued (catalog base and pair
  /// scopes) vs. skipped because the formula was already in the catalog
  /// base or the pair scope.
  uint64_t PrefixAsserts = 0;
  uint64_t PrefixReuses = 0;
  uint64_t EvictedClauses = 0; ///< Clauses pair retirement removed.
  /// High-water mark of retained clauses across every check — the number
  /// scoped eviction is meant to bound (with it, the database grows with
  /// the live pairs instead of with everything discharged).
  uint64_t PeakRetainedClauses = 0;
  /// Variable recycling: indices reclaimed by scope retirements, the
  /// live-variable and clause high-water marks, and the cumulative
  /// variable demand (the allocation a no-recycling run would need).
  uint64_t RecycledVars = 0;
  uint64_t PeakLiveVars = 0;
  uint64_t PeakLiveClauses = 0;
  uint64_t VarRequests = 0;
  /// Always 0: sessions no longer compact their bridge lattice (the
  /// catalog bounds the atom universe). Kept only because the
  /// benchmark's smt.compactions row reads it.
  uint64_t BridgeCompactions = 0;
  /// Retired-scope selector variables released to the recycler (instead
  /// of pinning the trail forever), and the live/peak bridge-formula
  /// counts.
  uint64_t ReleasedSelectors = 0;
  uint64_t LiveBridges = 0;
  uint64_t PeakLiveBridges = 0;
};

/// Outcome of discharging all six testing methods of one pair, plus the
/// session-level reuse statistics the driver reports per pair.
struct PairOutcome {
  /// Per-method results in enumeration order: before/between/after x
  /// soundness/completeness.
  std::vector<SymbolicResult> Methods;
  std::vector<double> MethodMillis; ///< Wall time per method.
  uint64_t Checks = 0;              ///< SMT checks the session served.
  int64_t Conflicts = 0;            ///< CDCL conflicts across the pair.
  uint64_t RetainedClauses = 0;     ///< Clauses alive at the end.
  uint64_t DbReductions = 0;        ///< Clause-GC runs.
  uint64_t ReclaimedClauses = 0;    ///< Clauses the GC reclaimed.
  unsigned Selectors = 0;           ///< Selector literals registered.
  /// Solver sessions opened: 1 for the warm pair session, one per split
  /// in OneShot mode.
  size_t SessionsOpened = 0;
  /// Wall time of the pair's planning: its one-pair catalog plan (warm
  /// modes) and its planPair call. SymbolicEngine fills it.
  double PlanMillis = 0;
  /// The warm pair session's lifetime statistics (all zero in OneShot
  /// mode, which opens no CatalogSession).
  CatalogSessionStats Session;

  /// Certification aggregates (zero unless the engine certifies): the
  /// checker's verdict over the pair's session trace, its step/query
  /// counts, and its database high-water mark.
  bool Certified = false;
  uint64_t ProofSteps = 0;
  uint64_t ProofQueries = 0;
  uint64_t ProofClauses = 0;

  unsigned failures() const {
    unsigned N = 0;
    for (const SymbolicResult &R : Methods)
      N += !R.Verified;
    return N;
  }

  /// Copies a session's certification summary into the aggregates.
  void stampCertification(const proof::CertifySummary &S) {
    Certified = S.Checked && S.Ok;
    ProofSteps = S.Steps;
    ProofQueries = S.Queries;
    ProofClauses = S.PeakClauses;
  }
};

/// Stamps a session's certification verdict onto one method result: the
/// checker database high-water mark, and whether every one of the
/// method's own Unsat-query tags was checked and passed (a fatal trace
/// error voids everything — the trace itself could not be replayed).
void backfillCertification(const proof::CertifySummary &S, SymbolicResult &R);

/// True for the cold baseline (OneShot), which opens fresh sessions
/// instead of discharging on a warm CatalogSession.
inline bool isColdMode(SolveMode M) { return M == SolveMode::OneShot; }

/// The cold baseline: discharges \p Plans in order, each split on a fresh
/// SmtSession with the plan's Common and Scoped prefix asserted as plain
/// session base. The outcome's session totals sum over every session
/// opened; when \p Certify is set each session certifies on its own and
/// the summaries fold, so the whole run certifies as one.
PairOutcome dischargeCold(ExprFactory &F, const std::vector<MethodPlan> &Plans,
                          int64_t Budget, bool Certify);

/// Discharges one standalone plan (a single testing method, an inverse
/// VC) in \p Mode: a warm mode runs it on a one-pair CatalogSession whose
/// catalog-common prefix is the plan's Common, OneShot through
/// dischargeCold. The result carries its certification verdict.
SymbolicResult dischargePlan(ExprFactory &F, const MethodPlan &Plan,
                             SolveMode Mode, int64_t Budget, bool Certify);

/// One family's share of a CatalogPlan.
struct FamilyPlan {
  std::string FamilyName;
  /// The family's pairs in discharge order (Methods may be empty: lazy
  /// callers materialize them just before discharge). A plan with exactly
  /// one pair puts that pair at the session root.
  std::vector<PairPlan> Pairs;
};

/// The whole-catalog discharge plan a CatalogSession runs. Families carry
/// their pair keys (and, for eager callers, their pair plans); the
/// catalog-common prefix is the subset of well-formedness formulas every
/// entry either asserts itself or provably cannot mention (its variables
/// are outside the entry's vocabulary), hoisted to the session root.
struct CatalogPlan {
  std::vector<ExprRef> CatalogCommon;
  std::vector<FamilyPlan> Families;
};

/// The warm solver session of every warm discharge: one per pair in the
/// driver (SolveMode::SharedPair), one over all served families in the
/// verification service. The catalog-common prefix is session base; each
/// live pair owns a selector scope directly beneath it, holding whatever
/// part of the pair's Common prefix the base lacks, and method scopes nest
/// under their pair's. Pair scopes are keyed by (family, pair key) — one
/// key can name a pair in several families — and labeled "pair:Fam/Key",
/// so proof tags stay unique across families. The sole pair of a one-pair
/// plan sits at the root and only method selectors remain. retirePair()
/// retires a pair's whole subtree and the solver recycles its definition
/// variables, so the session's memory is bounded by the live pairs — not
/// by catalog size — while the atom table and bridge lattice are derived
/// once for all families. Pair scopes own a Tseitin cache layer; method
/// scopes share their pair's, since they only ever retire with it. A
/// retired pair re-opens as a fresh scope. Not thread-safe: one
/// CatalogSession lives on one worker.
class CatalogSession {
public:
  /// Asserts \p Plan's catalog-common prefix as session base. The plan
  /// must outlive the session (family Pairs may be empty: lazy callers
  /// materialize pair plans just before discharge). \p Certify turns on
  /// streaming proof checking before any assertion reaches the solver;
  /// \p ProofRecorder is SmtSession::enableCertification's test hook.
  /// Every session encodes its own prefix: sessions over the same plan
  /// and factory reach the same database (same clauses, atoms and
  /// bridges).
  CatalogSession(ExprFactory &F, const CatalogPlan &Plan, int64_t Budget,
                 bool Certify = false,
                 proof::ProofTrace *ProofRecorder = nullptr);
  CatalogSession(const CatalogSession &) = delete;
  CatalogSession &operator=(const CatalogSession &) = delete;

  /// Discharges every split of \p Plan under pair \p PairKey of family
  /// \p FamIdx (an index into the catalog plan's Families). Opens the pair
  /// scope — asserting the part of the plan's Common prefix the catalog
  /// base lacks — on first use; a retired pair transparently re-opens as
  /// a fresh scope. Returns true when the method verifies.
  bool discharge(size_t FamIdx, const std::string &PairKey,
                 const MethodPlan &Plan, SymbolicResult &R);

  /// Retires one pair's scope subtree. Returns the clauses evicted.
  size_t retirePair(size_t FamIdx, const std::string &PairKey);

  /// Statistics snapshot (session counters and the solver's variable
  /// accounting).
  CatalogSessionStats stats() const;

  /// Lifetime statistics.
  uint64_t checks() const { return Session.numChecks(); }
  int64_t conflicts() const { return Session.totalConflicts(); }
  uint64_t dbReductions() const {
    return static_cast<uint64_t>(Session.dbReductions());
  }
  uint64_t reclaimedClauses() const {
    return static_cast<uint64_t>(Session.reclaimedClauses());
  }
  uint64_t retainedClauses() const { return Session.retainedClauses(); }
  unsigned numSelectors() const { return SelectorCount; }

  /// The underlying session, exposed so tests can assert solver
  /// invariants (reasonInvariantHolds) after subtree evictions and force
  /// clause-GC reductions through its solver.
  SmtSession &session() { return Session; }

  /// Restarts the solver's live-variable / live-clause / live-bridge
  /// high-water marks from the current live counts. The service calls
  /// this between catalog passes so each pass's peak is measured
  /// independently (the plateau criterion compares per-pass peaks).
  void resetPeakStats() { Session.resetPeakStats(); }

  bool certifying() const { return Session.certifying(); }
  /// The session checker's running outcome (SmtSession).
  const proof::CertifySummary &finishCertification() {
    return Session.finishCertification();
  }

private:
  /// One registered method scope with the plan fingerprint it was opened
  /// for (the plan's Common + Scoped formulas; hash-consing makes pointer
  /// equality structural equality). The fingerprint guards against two
  /// *different* plans sharing a name: a mismatch opens a fresh scope
  /// instead of silently proving the new plan against the old plan's
  /// prefix.
  struct PlanSelectorEntry {
    std::vector<ExprRef> Fingerprint;
    SmtSession::ScopeId Scope = SmtSession::RootScope;
  };

  /// The live scope of one pair (the root for the root pair).
  struct PairScope {
    SmtSession::ScopeId Scope = SmtSession::RootScope;
    std::set<ExprRef> AssertedCommon; ///< Dedup under this pair's selector.
    /// Registered method scopes, keyed by plan name.
    std::map<std::string, std::vector<PlanSelectorEntry>> Methods;
  };
  using PairId = std::pair<size_t, std::string>; ///< (family, pair key).

  PairScope &ensurePair(const PairId &Id);

  const CatalogPlan &Plan;
  int64_t Budget;
  SmtSession Session;
  std::set<ExprRef> CatalogBase; ///< CatalogCommon membership (dedup only).
  /// The root pair of a one-pair plan, if any.
  std::optional<PairId> RootPair;
  std::map<PairId, PairScope> LivePairs;
  unsigned SelectorCount = 0;
  CatalogSessionStats Stats; ///< Session counters (solver numbers excluded).
};

} // namespace semcomm

#endif // SEMCOMM_COMMUTE_SESSIONPOOL_H
