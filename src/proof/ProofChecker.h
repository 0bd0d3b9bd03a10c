//===- proof/ProofChecker.h - Independent RUP/DRAT checker ------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An independent reverse-unit-propagation checker for the proof steps a
/// certifying SatSolver emits (ProofTrace.h). It shares no code and no
/// storage with the solver: it copies every clause into its own literal
/// arena, propagates over its own two-watched-literal lists, and keeps its
/// own root-level assignment. It is a streaming sink — fed each step the
/// moment the solver logs it, it checks each Query as it arrives — and it
/// verifies
///
///  * every Derive step is RUP over the clauses live at that point (so the
///    solver's learned clauses — including the root-trail literals dumped
///    before a scope retirement detaches their reasons — are entailed),
///  * every Delete step names a clause the checker actually holds (a
///    deletion of an unknown clause is a certification failure),
///  * every Recycle step names a fully dead variable (no live clause, no
///    unit, no root assignment — the soundness condition of index reuse),
///  * every Query step's unsat core, asserted as assumptions over the live
///    database, propagates to a conflict, and the solver's live-clause
///    count matches the checker's (which catches a solver that drops a
///    clause without logging the deletion).
///
/// The root-level assignment is maintained as a *persistent* propagation
/// fixpoint — units and their consequences stay assigned across steps.
/// This is required for completeness: a query whose core only makes sense
/// together with root consequences of earlier inputs would otherwise miss
/// the conflict. Deletions may shrink that fixpoint, so deleting a clause
/// that could have forced an assignment marks the root state dirty and the
/// next Derive/Query/Recycle step rebuilds it from scratch.
///
/// Memory tracks the live database, not the stream: no step is retained,
/// deleted clauses' arena space is compacted away once it outweighs the
/// live literals, per-variable live-occurrence counts answer Recycle
/// without occurrence lists, and the literal-hash index that matches Delete
/// steps is only built at the first clause deletion (a stream without one
/// never pays for it). check() replays a recorded ProofTrace through the
/// same streaming interface.
///
/// The certificate semantics: a passing trace establishes, for each Query,
/// that (all Input clauses ever added) together with the query's core
/// literals propositionally entail false. Lifting that to the *live*
/// session formula rests on retired clauses being selector-guarded and
/// Tseitin definitions being conservative extensions — the static
/// discipline `semcommute-lint` audits; the two tools are complementary.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_PROOF_PROOFCHECKER_H
#define SEMCOMM_PROOF_PROOFCHECKER_H

#include "proof/ProofTrace.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace semcomm {
namespace proof {

/// Outcome of one Query step.
struct QueryResult {
  std::string Tag;
  bool Passed = false;
  std::string Error; ///< Empty when Passed.
};

/// Outcome of checking one full trace.
struct CheckResult {
  bool Ok = false;             ///< Every step checked out.
  size_t StepsChecked = 0;     ///< Steps processed before success/failure.
  size_t QueriesChecked = 0;
  size_t QueriesPassed = 0;
  size_t PeakClauses = 0;      ///< High-water mark of the checker database.
  std::string Error;           ///< First fatal error (empty when Ok).
  std::vector<QueryResult> Queries; ///< One row per Query step, in order.
};

struct CertifySummary;

/// Checks a proof stream step by step against an independent clause
/// database. Feed the steps in trace order (or a whole recorded trace
/// through check()) and read result(). Steps after a fatal error are
/// ignored: the database they would act on is no longer trustworthy.
class ProofChecker {
public:
  /// \p Outcomes, when given, receives each query's (tag, passed) the
  /// moment it is checked, in place of a QueryResult row in result(), so
  /// a long-lived stream's memory does not grow with its query count.
  explicit ProofChecker(CertifySummary *Outcomes = nullptr)
      : Outcomes(Outcomes) {
    R.Ok = true;
  }

  void addInput(const std::vector<int> &Lits);
  void addDerive(const std::vector<int> &Lits);
  void addDelete(const std::vector<int> &Lits);
  void addRecycle(int Var);
  void addQuery(const std::vector<int> &Core, uint64_t LiveClauses,
                const std::string &Tag);

  /// The outcome of every step fed so far.
  const CheckResult &result() const { return R; }

  /// Feeds every step of \p Trace, then returns result().
  CheckResult check(const ProofTrace &Trace);

private:
  /// A stored (>= 2-literal) clause: Size literals at Arena[Start..].
  /// Lits[0] and Lits[1] are the watched literals. Size 0 = deleted.
  struct ClauseRef {
    uint32_t Start = 0;
    uint32_t Size = 0;
  };
  /// One watch-list entry: the clause, plus a literal of it whose truth
  /// lets propagation skip the clause without reading the arena.
  struct Watcher {
    uint32_t Clause = 0;
    int Blocker = 0;
  };

  CheckResult R;
  CertifySummary *Outcomes = nullptr;
  bool Failed = false; ///< A fatal error stopped the check.

  // -- database ----------------------------------------------------------
  std::vector<int> Arena;     ///< Every stored clause's literals.
  std::vector<ClauseRef> DB;  ///< Clause index -> its arena slice.
  size_t LiveLits = 0;        ///< Arena literals of alive clauses.
  size_t DeadLits = 0;        ///< Arena literals of deleted clauses.
  size_t AliveClauses = 0;    ///< Alive >= 2-literal clauses (mirror of
                              ///< the solver's stored-clause count).
  /// Literal code (litCode) -> clauses watching that literal, visited
  /// when it becomes false (deleted clauses are dropped as met).
  std::vector<std::vector<Watcher>> Watches;
  /// Var -> alive clauses' occurrences of it (either sign).
  std::vector<uint32_t> Occurrences;
  /// Literal code -> explicit unit records (input units, derived units,
  /// the pre-retirement trail dump). Deleting a unit decrements; at zero
  /// the literal loses its axiomatic support.
  std::vector<uint32_t> Units;
  /// Order-independent literal hash -> alive clauses with that hash, in
  /// clause-index order (Delete matching). Built at the first deletion.
  std::unordered_map<uint64_t, std::vector<uint32_t>> ByKey;
  bool KeyIndexBuilt = false;

  // -- persistent root state --------------------------------------------
  /// Var -> 0 unassigned / +1 true / -1 false, under root propagation.
  std::vector<int8_t> Val;
  std::vector<int> RootTrail;  ///< Literals assigned at root, in order.
  bool TopConflict = false;    ///< Root propagation reached a conflict.
  bool RootDirty = false;      ///< A deletion may have shrunk the fixpoint.
  bool HasEmptyInput = false;  ///< An empty Input clause was logged.

  std::vector<int> Scratch, KeyScratch; ///< Reused per step.

  /// Dense index of a literal: 2v for v, 2v+1 for ~v.
  static size_t litCode(int L) {
    return L > 0 ? 2 * static_cast<size_t>(L)
                 : 2 * static_cast<size_t>(-L) + 1;
  }
  int8_t valueOf(int Lit) const;
  /// Grows the per-variable and per-literal tables to cover \p Var.
  void ensureVar(int Var);
  /// Assigns \p L onto RootTrail: 0 = newly assigned, 1 = already true,
  /// -1 = conflicts with the current assignment. Never propagates.
  int tryAssign(int L);
  /// Propagates RootTrail[From..] to fixpoint; true on conflict.
  bool propagateFrom(size_t From);
  void undoTo(size_t Mark);
  /// Rebuilds the persistent root fixpoint from the alive units and
  /// clauses (after a deletion invalidated it).
  void rebuildRoot();
  void flushRoot(); ///< rebuildRoot() iff RootDirty.

  /// RUP test: under the current root state, assume \p Assumptions (as
  /// given), propagate, and report whether a conflict was reached. The
  /// temporary assignments are undone before returning.
  bool propagatesToConflict(const std::vector<int> &Assumptions);

  /// Stores a Derive/Input clause, units included.
  void addLemma(const std::vector<int> &Lits);
  /// Registers an explicit unit record and folds it into the root state.
  void addUnit(int L);
  void addClause(const std::vector<int> &Lits);
  void watchClause(uint32_t CI);
  /// Removes one clause matching \p Lits; empty return = ok, otherwise the
  /// error text.
  std::string removeClause(const std::vector<int> &Lits);
  static uint64_t keyOf(const int *Lits, size_t N);
  void buildKeyIndex();
  /// Drops deleted clauses from the arena and renumbers the survivors in
  /// order, rebuilding the watch lists and the deletion index.
  void compact();

  /// Counts one step; false when a fatal error already stopped the check.
  bool begin();
  void fatal(StepKind K, const std::string &Msg);
  /// Counts one query's outcome and hands it to Outcomes, or keeps it as
  /// a row of result().Queries.
  void recordQuery(const std::string &Tag, bool Passed, const char *Error);
};

/// Aggregated certification outcome of one or more solver sessions (a
/// driver job may rotate several sessions; their results fold together).
struct CertifySummary {
  bool Checked = false; ///< At least one checker run happened.
  bool Ok = true;       ///< Every folded run passed.
  uint64_t Steps = 0;
  uint64_t Queries = 0;
  uint64_t QueriesPassed = 0;
  uint64_t PeakClauses = 0; ///< Max over the folded runs.
  std::string Error;        ///< First failing run's error.
  /// Tag -> passed, over every folded run. A tag can name several
  /// queries (a service re-opens a retired pair under the same scope
  /// labels, and shards share labels); it passes only if every query that
  /// carries it passed, whatever the fold order.
  std::unordered_map<std::string, bool> QueryOutcome;

  void recordQuery(const std::string &Tag, bool Passed) {
    auto [It, Fresh] = QueryOutcome.try_emplace(Tag, Passed);
    if (!Fresh)
      It->second = It->second && Passed;
  }

  /// Takes the run totals of one checker's result (not its query rows: a
  /// streaming checker records each query here as it checks it).
  void setTotals(const CheckResult &R) {
    Checked = true;
    Ok = R.Ok;
    Steps = R.StepsChecked;
    Queries = R.QueriesChecked;
    QueriesPassed = R.QueriesPassed;
    PeakClauses = R.PeakClauses;
    Error = R.Error;
  }
  void fold(const CertifySummary &O) {
    if (!O.Checked)
      return;
    Checked = true;
    Ok = Ok && O.Ok;
    Steps += O.Steps;
    Queries += O.Queries;
    QueriesPassed += O.QueriesPassed;
    PeakClauses = std::max(PeakClauses, O.PeakClauses);
    if (Error.empty() && !O.Error.empty())
      Error = O.Error;
    for (const auto &[Tag, Passed] : O.QueryOutcome)
      recordQuery(Tag, Passed);
  }
  /// True when every tag of \p Tags was checked and passed.
  bool allPassed(const std::vector<std::string> &Tags) const {
    if (!Checked)
      return false;
    for (const std::string &T : Tags) {
      auto It = QueryOutcome.find(T);
      if (It == QueryOutcome.end() || !It->second)
        return false;
    }
    return true;
  }
};

} // namespace proof
} // namespace semcomm

#endif // SEMCOMM_PROOF_PROOFCHECKER_H
