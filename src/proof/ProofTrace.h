//===- proof/ProofTrace.h - DRAT-style solver proof log ---------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The proof steps a certifying SatSolver emits, in their recorded form. The
/// solver streams each step straight into the independent checker
/// (ProofChecker.h) as it logs it; a ProofTrace is the same step sequence
/// kept whole — what a recorder attached to a session receives, what the
/// text form serializes and parses, and what ProofChecker::check()
/// re-checks step by step. The format is DRAT with two extensions that
/// make a *reusing* incremental solver checkable:
///
///  * Deletion records cover every clause the solver drops — clause-DB
///    reduction, scope retirement, and the unit clauses compacted off the
///    trail when a pinned definition variable is recycled — so the checker
///    can mirror the live clause count exactly. A deletion of a clause the
///    checker does not hold is a certification failure, and every Query
///    step carries the solver's live stored-clause count for the checker
///    to cross-check; together these make "solver forgot to log a drop"
///    detectable, not silently ignorable.
///  * Recycle records mark a variable index as returned to the free list.
///    The checker verifies the index is fully dead (no live clause, no
///    unit, no root assignment) before the solver may rebind it — the
///    invariant that makes variable recycling sound.
///
/// Query steps slice the single session-long stream into per-verdict
/// certificates: each carries a caller-chosen tag (the assumption-selector
/// path of the verification condition) plus the final unsat core, and the
/// checker validates that core against the clauses live *at that point in
/// the stream*. One warm catalog session therefore yields an individually
/// checkable certificate per condition.
///
/// Literals are signed DIMACS integers (+v / -v, variables 1-based in the
/// text form; the in-memory form keeps the solver's 0-based encoding).
/// Input clauses are logged exactly as the solver *stores* them — after
/// root-level normalization (tautology and satisfied-clause dropping,
/// false-literal stripping) — so Delete records match; the normalization
/// itself is part of the trust base, as the CNF stream is in standard DRAT
/// checking.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_PROOF_PROOFTRACE_H
#define SEMCOMM_PROOF_PROOFTRACE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace semcomm {
namespace proof {

/// One record in a proof trace.
enum class StepKind : uint8_t {
  Input,   ///< Original clause as stored (axiom; empty = input contradiction).
  Derive,  ///< Learned clause; must be RUP over the clauses live here.
  Delete,  ///< Clause dropped (reduceDb / retireScopes / unit compaction).
  Recycle, ///< Variable index returned to the free list; must be dead.
  Query,   ///< One Unsat verdict: tag + final core + live-clause count.
};

const char *stepKindName(StepKind K);

struct Step {
  StepKind Kind = StepKind::Input;
  /// Input/Derive/Delete: the clause. Query: the unsat-core literals (the
  /// assumption literals the refutation used; empty = the base alone is
  /// contradictory).
  std::vector<int> Lits;
  /// Recycle: the recycled variable as a positive (1-based) DIMACS index,
  /// matching the literal encoding in Lits.
  int Var = 0;
  /// Query: the solver's stored (>= 2-literal) clause count at query time.
  uint64_t LiveClauses = 0;
  /// Query: the caller's slicing tag (selector path of the verdict).
  std::string Tag;
};

/// A query tag in its one text-form spelling: spaces fold to '_', so a tag
/// is always one token. Every place that stamps or records a tag uses it.
inline std::string canonicalTag(std::string T) {
  for (char &C : T)
    if (C == ' ')
      C = '_';
  return T;
}

/// An append-only record of proof steps, in the order the solver logged
/// them. A certifying session keeps none; tests record one to mutate,
/// serialize or re-check a session's whole stream.
class ProofTrace {
public:
  /// Sets the tag stamped onto subsequent Query steps, in its
  /// canonicalTag spelling.
  void setTag(std::string T) { CurrentTag = canonicalTag(std::move(T)); }
  const std::string &tag() const { return CurrentTag; }

  void addInput(std::vector<int> Lits) {
    Steps.push_back({StepKind::Input, std::move(Lits), 0, 0, {}});
  }
  void addDerive(std::vector<int> Lits) {
    Steps.push_back({StepKind::Derive, std::move(Lits), 0, 0, {}});
  }
  void addDelete(std::vector<int> Lits) {
    Steps.push_back({StepKind::Delete, std::move(Lits), 0, 0, {}});
  }
  void addRecycle(int Var) {
    Steps.push_back({StepKind::Recycle, {}, Var, 0, {}});
  }
  void addQuery(std::vector<int> CoreLits, uint64_t LiveClauses) {
    Steps.push_back(
        {StepKind::Query, std::move(CoreLits), 0, LiveClauses, CurrentTag});
    ++Queries;
  }

  const std::vector<Step> &steps() const { return Steps; }
  size_t size() const { return Steps.size(); }
  size_t numQueries() const { return Queries; }

  /// Mutable access for the rejection tests (corrupt / truncate / permute /
  /// drop-a-deletion); the solver itself only appends.
  std::vector<Step> &mutableSteps() { return Steps; }

  /// Text form: a `p semcommute-proof <steps>` header, then one line per
  /// step (`i`/`l`/`d` + literals + 0; `r <var> 0`; `q <live> <lits> 0
  /// <tag>`). The header's step count makes line-boundary truncation a
  /// parse error, not a silently shorter proof.
  std::string serialize() const;
  static std::optional<ProofTrace> parse(const std::string &Text);

private:
  std::vector<Step> Steps;
  std::string CurrentTag;
  size_t Queries = 0;
};

} // namespace proof
} // namespace semcomm

#endif // SEMCOMM_PROOF_PROOFTRACE_H
