//===- smt/Tseitin.h - Structural CNF encoding ------------------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tseitin transformation from the logic's boolean structure into CNF over
/// atom variables. Non-propositional boolean expressions (equalities,
/// comparisons, state-query atoms, boolean variables) become SAT variables;
/// the caller (SmtSolver) is responsible for adding theory-consistency
/// bridge clauses over those atoms.
///
/// The definition cache is *scope-layered* to support the session scope
/// trees: every layer has a parent, lookups walk the active layer's
/// ancestor chain (never a sibling), and fresh definition variables are
/// recorded as *owned* by the active layer. Because a definition created
/// under layer L can therefore only be referenced by encodings performed
/// under L or its descendants, retiring a scope subtree may evict every
/// clause mentioning the subtree layers' owned vars and recycle those
/// variable indices — the session-level invariant behind
/// SatSolver::retireScopes(). A dropped layer's slot is reused by the next
/// pushLayer(), so the layer table is bounded by the live scopes. Atom
/// variables stay global (one table for the whole solver): they are
/// shared with the theory bridges and keep their index for the solver's
/// lifetime. Scope selectors are not atoms: the session mints them as
/// bare solver variables, so no cache entry ever names one.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_SMT_TSEITIN_H
#define SEMCOMM_SMT_TSEITIN_H

#include "logic/Expr.h"
#include "smt/SatSolver.h"
#include "smt/SessionAudit.h"

#include <map>
#include <vector>

namespace semcomm {

/// Encodes expressions into a SatSolver, memoizing shared subformulas per
/// scope layer (hash-consing makes the memoization exact).
class Tseitin {
public:
  using LayerId = unsigned;
  static constexpr LayerId RootLayer = 0;

  explicit Tseitin(SatSolver &Solver) : Solver(Solver) {
    Layers.push_back({{}, {}, RootLayer, true});
  }

  /// Opens a new cache layer under \p Parent and returns its id (a dropped
  /// layer's id when one is free). The layer does not become active until
  /// setActiveLayer().
  LayerId pushLayer(LayerId Parent);
  /// Routes subsequent encode() inserts (and owned-var recording) to \p L.
  void setActiveLayer(LayerId L);
  LayerId activeLayer() const { return Active; }
  /// The definition variables created while \p L was active — the
  /// scope-private set a retirement hands to SatSolver::retireScopes().
  const std::vector<int> &ownedVars(LayerId L) const {
    return Layers[L].Owned;
  }
  /// Forgets a layer's cache and owned list (the caller retires the vars
  /// through the solver first) and frees its id for reuse. The layer must
  /// not be active and must have no live children.
  void dropLayer(LayerId L);

  /// Returns a literal equisatisfiably representing \p E. Cache lookups
  /// walk the active layer's ancestor chain; misses insert into the active
  /// layer.
  Lit encode(ExprRef E);

  /// Asserts \p E at the top level.
  void assertTrue(ExprRef E) { Solver.addClause({encode(E)}); }

  /// The atom map: every non-propositional boolean leaf and its variable.
  const std::map<ExprRef, int> &atoms() const { return Atoms; }

  /// Attaches a discipline event log (lint replays record layer pushes,
  /// definition creations, and cache references through it). Not owned.
  void setAuditLog(audit::Log *L) { Audit = L; }

private:
  struct Layer {
    std::map<ExprRef, Lit> Cache;
    std::vector<int> Owned; ///< Definition vars created under this layer.
    LayerId Parent;
    bool Alive;
  };

  Lit freshDefinition();
  Lit atomLit(ExprRef Atom);
  const Lit *lookup(ExprRef E) const;

  SatSolver &Solver;
  std::vector<Layer> Layers;
  std::vector<LayerId> FreeLayers; ///< Dropped layer ids, reused LIFO.
  LayerId Active = RootLayer;
  std::map<ExprRef, int> Atoms;
  audit::Log *Audit = nullptr; ///< Optional discipline event log.
};

} // namespace semcomm

#endif // SEMCOMM_SMT_TSEITIN_H
