//===- smt/PrefixImage.h - Pre-encoded catalog prefix image -----*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A read-only snapshot of a warm session's root-level solver state — the
/// catalog-common prefix plus its bridge lattice — taken once per process
/// and *loaded* by every other shard instead of being re-encoded per shard
/// (SmtSession::exportPrefix() / importPrefix()). The image holds ExprRefs,
/// so it is only meaningful between sessions sharing one ExprFactory
/// (hash-consing makes the references stable and comparable); cross-process
/// identity is checked on the canonical serialize() text, which spells
/// every expression out by its printed form.
///
/// What the image captures:
///  * the propositional database: variable count, stored root clauses in
///    insertion order, and the trail's input units in trail order — a
///    replay through addVar()/addClause() reconstructs the identical
///    root-propagated fixpoint (clauses are already root-normalized at
///    export, and the replay adds every clause before the first unit);
///  * the Tseitin state: the global atom map plus the root layer's
///    definition cache and owned-variable list;
///  * the theory registries (object terms, membership atoms, canonical
///    integer atoms with their linear-form metadata) and the bridge
///    watermarks, so an importing session emits no duplicate bridges;
///  * the base-atom vocabulary for countermodel reporting.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_SMT_PREFIXIMAGE_H
#define SEMCOMM_SMT_PREFIXIMAGE_H

#include "logic/Expr.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace semcomm {

/// Snapshot of a session's catalog-common prefix (see file comment).
struct PrefixImage {
  // Propositional database.
  int NumVars = 0;
  std::vector<std::vector<int>> Clauses; ///< Stored clauses, encoded lits.
  std::vector<int> Units;                ///< Input units, trail order.

  // Tseitin state. Maps are keyed by ExprRef (pointer order), so the
  // exported vectors are re-sorted by printed form — the stable total
  // order — to make the in-memory image, and serialize(), run-invariant.
  std::vector<std::pair<ExprRef, int>> Atoms;    ///< Atom -> variable.
  std::vector<std::pair<ExprRef, int>> RootDefs; ///< Expr -> encoded lit.
  std::vector<int> RootOwned;

  // Theory registries, discovery order (map lookups are recovered from
  // ObjTerms by kind, preserving order).
  std::vector<ExprRef> ObjTerms;
  std::vector<ExprRef> MemAtoms;
  struct IntAtomEntry {
    ExprRef Atom = nullptr;
    std::string Signature;
    bool IsEq = false;
    int64_t C = 0;
  };
  std::vector<IntAtomEntry> IntAtoms;

  std::vector<ExprRef> BaseAtoms; ///< Sorted by printed form.
  int64_t LiveBridges = 0;

  bool empty() const { return NumVars == 0; }

  /// Canonical text form: byte-identical across runs and processes for
  /// images exported from the same asserted-formula sequence (tests and
  /// the --dump-prefix CI check pin this). Not a parser format — identity
  /// and inspection only.
  std::string serialize() const;
};

} // namespace semcomm

#endif // SEMCOMM_SMT_PREFIXIMAGE_H
