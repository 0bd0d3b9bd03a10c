//===- smt/Tseitin.cpp - Structural CNF encoding ----------------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "smt/Tseitin.h"

#include "support/Unreachable.h"

#include <cassert>

using namespace semcomm;

Tseitin::LayerId Tseitin::pushLayer(LayerId Parent) {
  assert(Parent < Layers.size() && Layers[Parent].Alive &&
         "pushLayer under a dead parent");
  Layers.push_back({{}, {}, Parent, true});
  LayerId Id = static_cast<LayerId>(Layers.size()) - 1;
  if (Audit)
    Audit->pushLayer(Id, Parent);
  return Id;
}

void Tseitin::setActiveLayer(LayerId L) {
  assert(L < Layers.size() && Layers[L].Alive && "activating a dead layer");
  Active = L;
}

void Tseitin::dropLayer(LayerId L) {
  assert(L != RootLayer && "the root layer is permanent");
  assert(L != Active && "dropping the active layer");
  if (Audit)
    Audit->dropLayer(L);
  Layers[L].Cache.clear();
  Layers[L].Owned.clear();
  Layers[L].Owned.shrink_to_fit();
  Layers[L].Alive = false;
}

Lit Tseitin::freshDefinition() {
  int V = Solver.addVar();
  Layers[Active].Owned.push_back(V);
  if (Audit)
    Audit->define(Active);
  return Lit(V, true);
}

Lit Tseitin::atomLit(ExprRef Atom) {
  auto It = Atoms.find(Atom);
  if (It != Atoms.end())
    return Lit(It->second, true);
  // Atom vars are global (bridges reference them across scopes), so they
  // are never layer-owned; they leave the table only through an explicit
  // releaseAtom() once the SMT layer proves every referencing scope died
  // (retired selectors only).
  int V = Solver.addVar();
  Atoms.emplace(Atom, V);
  return Lit(V, true);
}

const Lit *Tseitin::lookup(ExprRef E) const {
  // Walk the ancestor chain only: a sibling layer's definitions may be
  // evicted with that sibling, so referencing them would dangle.
  LayerId L = Active;
  while (true) {
    const Layer &Lay = Layers[L];
    auto It = Lay.Cache.find(E);
    if (It != Lay.Cache.end()) {
      if (Audit)
        Audit->reference(L, Active);
      return &It->second;
    }
    if (L == RootLayer)
      return nullptr;
    L = Lay.Parent;
  }
}

Lit Tseitin::encode(ExprRef E) {
  if (const Lit *Cached = lookup(E))
    return *Cached;

  Lit Result;
  switch (E->kind()) {
  case ExprKind::ConstBool: {
    // A constant literal: a fresh variable pinned by a unit clause.
    Lit L = freshDefinition();
    Solver.addClause({E->boolValue() ? L : L.negated()});
    Result = L;
    break;
  }
  case ExprKind::Not:
    Result = encode(E->operand(0)).negated();
    break;
  case ExprKind::And: {
    Lit G = freshDefinition();
    std::vector<Lit> Back{G};
    for (ExprRef Op : E->operands()) {
      Lit L = encode(Op);
      Solver.addClause({G.negated(), L});
      Back.push_back(L.negated());
    }
    Solver.addClause(Back);
    Result = G;
    break;
  }
  case ExprKind::Or: {
    Lit G = freshDefinition();
    std::vector<Lit> Fwd{G.negated()};
    for (ExprRef Op : E->operands()) {
      Lit L = encode(Op);
      Solver.addClause({G, L.negated()});
      Fwd.push_back(L);
    }
    Solver.addClause(Fwd);
    Result = G;
    break;
  }
  case ExprKind::Implies: {
    Lit A = encode(E->operand(0));
    Lit B = encode(E->operand(1));
    Lit G = freshDefinition();
    Solver.addClause({G.negated(), A.negated(), B});
    Solver.addClause({G, A});
    Solver.addClause({G, B.negated()});
    Result = G;
    break;
  }
  case ExprKind::Iff: {
    Lit A = encode(E->operand(0));
    Lit B = encode(E->operand(1));
    Lit G = freshDefinition();
    Solver.addClause({G.negated(), A.negated(), B});
    Solver.addClause({G.negated(), A, B.negated()});
    Solver.addClause({G, A, B});
    Solver.addClause({G, A.negated(), B.negated()});
    Result = G;
    break;
  }
  case ExprKind::Ite: {
    assert(E->sort() == Sort::Bool && "only boolean ITE is propositional");
    Lit C = encode(E->operand(0));
    Lit T = encode(E->operand(1));
    Lit F = encode(E->operand(2));
    Lit G = freshDefinition();
    Solver.addClause({G.negated(), C.negated(), T});
    Solver.addClause({G.negated(), C, F});
    Solver.addClause({G, C.negated(), T.negated()});
    Solver.addClause({G, C, F.negated()});
    Result = G;
    break;
  }
  default:
    assert(E->sort() == Sort::Bool && "encoding a non-boolean expression");
    Result = atomLit(E);
    break;
  }

  Layers[Active].Cache.emplace(E, Result);
  return Result;
}
