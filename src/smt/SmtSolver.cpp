//===- smt/SmtSolver.cpp - Eager-encoding SMT facade -------------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "smt/SmtSolver.h"

#include "logic/Printer.h"
#include "support/Unreachable.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace semcomm;
using detail::IntAtomInfo;

// --- Linear integer atom canonicalization -----------------------------------

namespace {

/// A linear combination of opaque integer symbols plus a constant.
struct LinearForm {
  std::map<std::string, std::pair<ExprRef, int64_t>> Coeffs; // key: printed
  int64_t Constant = 0;

  void addSymbol(ExprRef Sym, int64_t C) {
    std::string Key = printAbstract(Sym);
    auto [It, _] = Coeffs.try_emplace(Key, Sym, 0);
    It->second.second += C;
    if (It->second.second == 0)
      Coeffs.erase(It);
  }

  void negate() {
    for (auto &[K, V] : Coeffs)
      V.second = -V.second;
    Constant = -Constant;
  }

  std::string signature() const {
    std::string Sig;
    for (const auto &[K, V] : Coeffs)
      Sig += (V.second >= 0 ? "+" : "") + std::to_string(V.second) + "*" + K;
    return Sig;
  }
};

/// Decomposes an Int-sorted expression into a LinearForm; any
/// non-arithmetic subterm (variable, indexOf, size, counter, ...) is an
/// opaque symbol.
void decompose(ExprRef E, int64_t Sign, LinearForm &Out) {
  switch (E->kind()) {
  case ExprKind::ConstInt:
    Out.Constant += Sign * E->intValue();
    return;
  case ExprKind::Add:
    decompose(E->operand(0), Sign, Out);
    decompose(E->operand(1), Sign, Out);
    return;
  case ExprKind::Sub:
    decompose(E->operand(0), Sign, Out);
    decompose(E->operand(1), -Sign, Out);
    return;
  case ExprKind::Neg:
    decompose(E->operand(0), -Sign, Out);
    return;
  default:
    assert(E->sort() == Sort::Int && "non-integer term in linear form");
    Out.addSymbol(E, Sign);
    return;
  }
}

} // namespace

ExprRef SmtSession::canonicalIntAtom(ExprKind K, ExprRef A, ExprRef B) {
  // diff = A - B  (for Lt: A < B  <=>  diff <= -1; Le: diff <= 0).
  LinearForm Diff;
  decompose(A, 1, Diff);
  decompose(B, -1, Diff);
  int64_t Bound = -Diff.Constant;
  Diff.Constant = 0;

  if (Diff.Coeffs.empty()) {
    switch (K) {
    case ExprKind::Eq:
      return F.boolConst(0 == Bound);
    case ExprKind::Lt:
      return F.boolConst(0 < Bound);
    case ExprKind::Le:
      return F.boolConst(0 <= Bound);
    default:
      semcomm_unreachable("bad int atom kind");
    }
  }

  bool IsEq = (K == ExprKind::Eq);
  if (K == ExprKind::Lt)
    Bound -= 1; // sum <= Bound - 1.

  // Canonical sign for equalities: least symbol has a positive coefficient.
  if (IsEq && Diff.Coeffs.begin()->second.second < 0) {
    Diff.negate();
    Bound = -Bound;
  }

  std::string Name = std::string(IsEq ? "ieq" : "ile") + "[" +
                     Diff.signature() + "]" + std::to_string(Bound);
  ExprRef Atom = F.var(Name, Sort::Bool);
  if (IntAtomSeen.insert(Atom).second)
    IntAtoms.push_back({Atom, {Diff.signature(), IsEq, Bound}});
  return Atom;
}

ExprRef SmtSession::eqObj(ExprRef A, ExprRef B) {
  if (A == B)
    return F.trueExpr();
  // Lower object-sorted ITEs into the boolean structure.
  if (A->kind() == ExprKind::Ite)
    return F.disj({F.conj({normalize(A->operand(0)),
                           eqObj(A->operand(1), B)}),
                   F.conj({F.lnot(normalize(A->operand(0))),
                           eqObj(A->operand(2), B)})});
  if (B->kind() == ExprKind::Ite)
    return eqObj(B, A);
  // Canonical operand order (printed form is a stable total order).
  if (printAbstract(B) < printAbstract(A))
    std::swap(A, B);
  return F.eq(A, B);
}

ExprRef SmtSession::normalizeAtom(ExprRef E) {
  switch (E->kind()) {
  case ExprKind::Eq: {
    Sort S = E->operand(0)->sort();
    if (S == Sort::Int)
      return canonicalIntAtom(ExprKind::Eq, E->operand(0), E->operand(1));
    if (S == Sort::Obj)
      return eqObj(E->operand(0), E->operand(1));
    return F.iff(normalize(E->operand(0)), normalize(E->operand(1)));
  }
  case ExprKind::Lt:
    return canonicalIntAtom(ExprKind::Lt, E->operand(0), E->operand(1));
  case ExprKind::Le:
    return canonicalIntAtom(ExprKind::Le, E->operand(0), E->operand(1));
  default:
    // Boolean variables and state-query atoms stay as they are.
    return E;
  }
}

ExprRef SmtSession::normalize(ExprRef E) {
  switch (E->kind()) {
  case ExprKind::Not:
    return F.lnot(normalize(E->operand(0)));
  case ExprKind::And:
  case ExprKind::Or: {
    std::vector<ExprRef> Ops;
    for (ExprRef Op : E->operands())
      Ops.push_back(normalize(Op));
    return E->kind() == ExprKind::And ? F.conj(std::move(Ops))
                                      : F.disj(std::move(Ops));
  }
  case ExprKind::Implies:
    return F.implies(normalize(E->operand(0)), normalize(E->operand(1)));
  case ExprKind::Iff:
    return F.iff(normalize(E->operand(0)), normalize(E->operand(1)));
  case ExprKind::Ite:
    assert(E->sort() == Sort::Bool && "non-boolean ITE outside an atom");
    return F.ite(normalize(E->operand(0)), normalize(E->operand(1)),
                 normalize(E->operand(2)));
  default:
    return normalizeAtom(E);
  }
}

// --- Incremental bridge generation -------------------------------------------

void SmtSession::collectTheoryAtoms(ExprRef E) {
  if (E->kind() == ExprKind::Eq && E->operand(0)->sort() == Sort::Obj) {
    for (ExprRef T : {E->operand(0), E->operand(1)}) {
      if (ObjTermSet.insert(T).second) {
        ObjTerms.push_back(T);
        if (T->kind() == ExprKind::MapGet)
          MapLookups.push_back(T);
      }
    }
    return;
  }
  if (E->kind() == ExprKind::SetContains) {
    if (MemAtomSet.insert(E).second)
      MemAtoms.push_back(E);
    return;
  }
  for (ExprRef Op : E->operands())
    collectTheoryAtoms(Op);
}

void SmtSession::addBridgeClause(
    std::initializer_list<std::pair<ExprRef, bool>> Atoms) {
  std::vector<Lit> C;
  for (auto [Atom, Positive] : Atoms) {
    if (Atom->kind() == ExprKind::ConstBool) {
      if (Atom->boolValue() == Positive)
        return; // A true literal satisfies the clause.
      continue;  // A false one drops out.
    }
    // eqObj returns a formula only for an object ITE under a map key or a
    // set element, which the engines' fragment never produces.
    assert((Atom->kind() == ExprKind::Eq || Atom->kind() == ExprKind::Var ||
            Atom->kind() == ExprKind::SetContains) &&
           "bridge operand is not an atom");
    Lit L = Encoder.encode(Atom);
    C.push_back(Positive ? L : L.negated());
  }
  Sat.addClause(C);
}

void SmtSession::emitNewBridges() {
  // Equality transitivity over every term triple that mentions a new term.
  // New terms have the highest indices, so iterating the triple's maximum
  // index over the new range enumerates each new triple exactly once. Row
  // K of the pairwise atoms is filled as term K is bridged, through eqObj,
  // once per pair, so the atoms coincide with the assertions' atoms.
  for (size_t K = BridgedObjTerms; K < ObjTerms.size(); ++K) {
    std::vector<Lit> Row;
    Row.reserve(K);
    for (size_t J = 0; J != K; ++J) {
      ExprRef Eq = eqObj(ObjTerms[J], ObjTerms[K]);
      assert(Eq->kind() == ExprKind::Eq &&
             "distinct ITE-free terms compare by an atom");
      Row.push_back(Encoder.encode(Eq));
    }
    EqLits.push_back(std::move(Row));
    for (size_t J = 0; J != K; ++J)
      for (size_t I = 0; I != J; ++I) {
        Lit AB = EqLits[J][I], BC = EqLits[K][J], AC = EqLits[K][I];
        Sat.addClause({AB.negated(), BC.negated(), AC});
        Sat.addClause({AB.negated(), AC.negated(), BC});
        Sat.addClause({BC.negated(), AC.negated(), AB});
        LiveBridges += 3;
      }
  }

  // Congruence for map lookups: equal keys read equal values.
  for (size_t J = BridgedMapLookups; J < MapLookups.size(); ++J)
    for (size_t I = 0; I != J; ++I) {
      if (MapLookups[I]->operand(0) != MapLookups[J]->operand(0))
        continue;
      ExprRef KeysEq =
          eqObj(MapLookups[I]->operand(1), MapLookups[J]->operand(1));
      ExprRef ValsEq = eqObj(MapLookups[I], MapLookups[J]);
      addBridgeClause({{KeysEq, false}, {ValsEq, true}});
      ++LiveBridges;
    }

  // Congruence for set membership: equal elements agree on membership.
  // The biconditional is the one bridge that takes two clauses.
  for (size_t J = BridgedMemAtoms; J < MemAtoms.size(); ++J)
    for (size_t I = 0; I != J; ++I) {
      if (MemAtoms[I]->operand(0) != MemAtoms[J]->operand(0))
        continue;
      ExprRef ElemsEq = eqObj(MemAtoms[I]->operand(1),
                              MemAtoms[J]->operand(1));
      addBridgeClause({{ElemsEq, false}, {MemAtoms[I], false},
                       {MemAtoms[J], true}});
      addBridgeClause({{ElemsEq, false}, {MemAtoms[I], true},
                       {MemAtoms[J], false}});
      ++LiveBridges;
    }

  // Linear integer atom lattice: within one symbol signature, equalities
  // with different constants exclude each other, equalities decide bounds,
  // and the weaker bound follows from the stronger.
  for (size_t J = BridgedIntAtoms; J < IntAtoms.size(); ++J)
    for (size_t I = 0; I != J; ++I) {
      const auto &[AtomA, A] = IntAtoms[I];
      const auto &[AtomB, B] = IntAtoms[J];
      if (A.Signature != B.Signature)
        continue;
      if (A.IsEq && B.IsEq && A.C == B.C)
        continue;
      if (A.IsEq && B.IsEq)
        addBridgeClause({{AtomA, false}, {AtomB, false}});
      else if (A.IsEq)
        addBridgeClause({{AtomA, false}, {AtomB, A.C <= B.C}});
      else if (B.IsEq)
        addBridgeClause({{AtomB, false}, {AtomA, B.C <= A.C}});
      else if (A.C <= B.C)
        addBridgeClause({{AtomA, false}, {AtomB, true}});
      else
        addBridgeClause({{AtomB, false}, {AtomA, true}});
      ++LiveBridges;
    }

  BridgedObjTerms = ObjTerms.size();
  BridgedMapLookups = MapLookups.size();
  BridgedMemAtoms = MemAtoms.size();
  BridgedIntAtoms = IntAtoms.size();

  if (LiveBridges > PeakLiveBridges)
    PeakLiveBridges = LiveBridges;
}

void SmtSession::ingest(ExprRef Normalized) {
  collectTheoryAtoms(Normalized);
  // Bridges constrain global atoms and outlive every scope, so their
  // atoms must be cached in the root layer, never in a retirable one.
  Tseitin::LayerId Saved = Encoder.activeLayer();
  Encoder.setActiveLayer(Tseitin::RootLayer);
  emitNewBridges();
  Encoder.setActiveLayer(Saved);
}

void SmtSession::collectBoolAtoms(ExprRef E, std::set<ExprRef> &Out,
                                  std::set<ExprRef> &Visited) {
  if (!Visited.insert(E).second)
    return;
  switch (E->kind()) {
  case ExprKind::ConstBool:
    return;
  case ExprKind::Not:
  case ExprKind::And:
  case ExprKind::Or:
  case ExprKind::Implies:
  case ExprKind::Iff:
    for (ExprRef Op : E->operands())
      collectBoolAtoms(Op, Out, Visited);
    return;
  case ExprKind::Ite:
    if (E->sort() == Sort::Bool) {
      for (ExprRef Op : E->operands())
        collectBoolAtoms(Op, Out, Visited);
      return;
    }
    break;
  default:
    break;
  }
  if (E->sort() == Sort::Bool)
    Out.insert(E);
}

// --- Session top level --------------------------------------------------------

SmtSession::SmtSession(ExprFactory &F) : F(F), Encoder(Sat) {
  Scopes.push_back(ScopeNode{}); // RootScope: unguarded, root layer.
}

void SmtSession::enableCertification(proof::ProofTrace *Recorder) {
  assert(!Checker && "certification enabled twice");
  assert(Checks == 0 && Sat.numVars() == 0 &&
         "certification must be enabled before the first assertion");
  Checker = std::make_unique<proof::ProofChecker>(&Cert);
  Sat.setProofLog(Checker.get(), Recorder);
}

void SmtSession::setProofTag(const std::string &T) {
  if (!Checker)
    return;
  ProofTag = proof::canonicalTag(T);
}

const proof::CertifySummary &SmtSession::finishCertification() {
  if (Checker)
    Cert.setTotals(Checker->result());
  return Cert;
}

void SmtSession::assertBase(ExprRef E) {
  ExprRef N = normalize(E);
  ingest(N);
  std::set<ExprRef> Visited;
  collectBoolAtoms(N, BaseAtoms, Visited);
  Tseitin::LayerId Saved = Encoder.activeLayer();
  Encoder.setActiveLayer(Tseitin::RootLayer);
  Encoder.assertTrue(N);
  Encoder.setActiveLayer(Saved);
}

SmtSession::ScopeId SmtSession::openScope(ScopeId Parent, bool OwnLayer,
                                          std::string Label) {
  assert(Parent < Scopes.size() && Scopes[Parent].Alive &&
         "opening a scope under a dead parent");
  ScopeNode Node;
  Node.Selector = Lit(Sat.addVar(), true);
  Node.Parent = Parent;
  Node.OwnsLayer = OwnLayer;
  Node.Layer = OwnLayer ? Encoder.pushLayer(Scopes[Parent].Layer)
                        : Scopes[Parent].Layer;
  Node.Label = std::move(Label);
  Node.Serial = ++ScopesOpened;
  ScopeId Id;
  if (!FreeScopes.empty()) {
    Id = FreeScopes.back();
    FreeScopes.pop_back();
    Scopes[Id] = std::move(Node);
  } else {
    Id = Scopes.size();
    Scopes.push_back(std::move(Node));
  }
  Scopes[Parent].Children.push_back(Id);
  if (Audit)
    Audit->openScope(auditName(Id));
  return Id;
}

std::vector<SmtSession::ScopeId> SmtSession::pathOf(ScopeId Scope) const {
  assert(Scope < Scopes.size() && Scopes[Scope].Alive &&
         "path of a dead scope");
  std::vector<ScopeId> Path;
  for (ScopeId S = Scope; S != RootScope; S = Scopes[S].Parent)
    Path.push_back(S);
  std::reverse(Path.begin(), Path.end());
  return Path;
}

std::string SmtSession::auditName(ScopeId Scope) const {
  return Scopes[Scope].Label + "#" + std::to_string(Scopes[Scope].Serial);
}

void SmtSession::auditCheck(const std::vector<ScopeId> &Path) {
  std::vector<std::string> Names;
  for (ScopeId S : Path)
    Names.push_back(auditName(S));
  Audit->check(std::move(Names));
}

std::vector<std::string> SmtSession::scopePathLabels(ScopeId Scope) const {
  std::vector<std::string> Labels;
  for (ScopeId S : pathOf(Scope))
    Labels.push_back(Scopes[S].Label);
  return Labels;
}

void SmtSession::assertInScope(ScopeId Scope, ExprRef Body) {
  assert(Scope < Scopes.size() && Scopes[Scope].Alive &&
         "asserting into a dead scope");
  if (Scope == RootScope) {
    assertBase(Body);
    return;
  }
  if (Audit)
    Audit->assertInScope(auditName(Scope));
  ExprRef N = normalize(Body);
  ingest(N);
  std::set<ExprRef> Visited;
  collectBoolAtoms(N, Scopes[Scope].Atoms, Visited);
  Tseitin::LayerId Saved = Encoder.activeLayer();
  Encoder.setActiveLayer(Scopes[Scope].Layer);
  std::vector<Lit> Guard{Encoder.encode(N)};
  Encoder.setActiveLayer(Saved);
  for (ScopeId S = Scope; S != RootScope; S = Scopes[S].Parent)
    Guard.push_back(Scopes[S].Selector.negated());
  Sat.addClause(Guard);
}

size_t SmtSession::retireScope(ScopeId Scope) {
  assert(Scope != RootScope && "the root scope is permanent");
  assert(Scope < Scopes.size() && Scopes[Scope].Alive &&
         "retiring a dead scope");

  // Collect the subtree: selectors to falsify, owned layers to evict.
  std::vector<ScopeId> Subtree, Stack{Scope};
  while (!Stack.empty()) {
    ScopeId S = Stack.back();
    Stack.pop_back();
    Subtree.push_back(S);
    for (ScopeId C : Scopes[S].Children)
      Stack.push_back(C);
  }
  // Every subtree selector is released: only the subtree's guard clauses,
  // learned clauses and past check() assumptions ever named it.
  std::vector<Lit> Selectors;
  std::vector<int> ScopeVars;
  for (ScopeId S : Subtree) {
    const ScopeNode &Node = Scopes[S];
    Selectors.push_back(Node.Selector);
    if (Node.OwnsLayer) {
      const std::vector<int> &Owned = Encoder.ownedVars(Node.Layer);
      ScopeVars.insert(ScopeVars.end(), Owned.begin(), Owned.end());
    }
    if (Audit)
      Audit->retire(auditName(S));
  }
  size_t Evicted = Sat.retireScopes(Selectors, ScopeVars);

  std::vector<ScopeId> &Siblings = Scopes[Scopes[Scope].Parent].Children;
  Siblings.erase(std::remove(Siblings.begin(), Siblings.end(), Scope),
                 Siblings.end());
  // Free the subtree's layers (leaves before parents, so a parent layer
  // never dies while a child still names it) and node slots.
  Encoder.setActiveLayer(Tseitin::RootLayer);
  for (auto It = Subtree.rbegin(); It != Subtree.rend(); ++It) {
    if (Scopes[*It].OwnsLayer)
      Encoder.dropLayer(Scopes[*It].Layer);
    Scopes[*It] = ScopeNode{};
    Scopes[*It].Alive = false;
    FreeScopes.push_back(*It);
  }
  return Evicted;
}

void SmtSession::encodeForAudit(const std::vector<ExprRef> &Assumed,
                                ScopeId Scope) {
  if (Audit)
    auditCheck(pathOf(Scope));
  Tseitin::LayerId SavedLayer = Encoder.activeLayer();
  Encoder.setActiveLayer(Scopes[Scope].Layer);
  for (ExprRef E : Assumed) {
    ExprRef N = normalize(E);
    ingest(N);
    Encoder.encode(N);
  }
  Encoder.setActiveLayer(SavedLayer);
}

SatResult SmtSession::check(const std::vector<ExprRef> &Assumed,
                            int64_t MaxConflicts, ScopeId Scope) {
  std::vector<ScopeId> Path = pathOf(Scope);
  if (Audit)
    auditCheck(Path);
  // The path selectors come first, outermost first, then the query.
  std::vector<Lit> Assumptions;
  Assumptions.reserve(Path.size() + Assumed.size());
  for (ScopeId S : Path)
    Assumptions.push_back(Scopes[S].Selector);
  std::set<ExprRef> QueryAtoms, Visited;
  Tseitin::LayerId SavedLayer = Encoder.activeLayer();
  Encoder.setActiveLayer(Scopes[Scope].Layer);
  for (ExprRef E : Assumed) {
    ExprRef N = normalize(E);
    ingest(N);
    collectBoolAtoms(N, QueryAtoms, Visited);
    Assumptions.push_back(Encoder.encode(N));
  }
  Encoder.setActiveLayer(SavedLayer);

  int64_t ConflictsBefore = Sat.numConflicts();
  int64_t DecisionsBefore = Sat.numDecisions();
  SatResult R = Sat.solve(Assumptions, MaxConflicts);
  ++Checks;

  LastCoreIdx.clear();
  LastCoreScopes.clear();
  if (R == SatResult::Unsat) {
    std::vector<Lit> Core = Sat.unsatCore();
    // Core-minimizing restarts: re-solving under just the core either
    // confirms it (fixpoint) or returns a strictly smaller one; the
    // refutation's lemmas are retained, so each round is cheap. Bounded by
    // both a round count and the *remainder* of this check's conflict
    // budget, so a check never spends more than MaxConflicts total and
    // 'conflicts per VC' stays comparable to the configured budget.
    for (unsigned Round = 0; Round < CoreMinRounds && Core.size() > 1;
         ++Round) {
      int64_t Remaining = -1;
      if (MaxConflicts >= 0) {
        Remaining = MaxConflicts - (Sat.numConflicts() - ConflictsBefore);
        if (Remaining <= 0)
          break; // The main solve used the whole budget.
      }
      SatResult R2 = Sat.solve(Core, Remaining);
      ++CoreMinSolves;
      if (R2 != SatResult::Unsat)
        break; // Budget exhausted mid-minimization: keep the last core.
      if (Sat.unsatCore().size() >= Core.size()) {
        Core = Sat.unsatCore();
        break; // Fixpoint: the core is locally minimal.
      }
      Core = Sat.unsatCore();
    }
    // Map the minimized core back onto the path scopes and the caller's
    // Assumed vector (first match wins for duplicated formulas).
    std::vector<size_t> CoreIdx;
    for (Lit C : Core)
      for (size_t I = 0; I != Assumptions.size(); ++I)
        if (Assumptions[I] == C) {
          if (std::find(CoreIdx.begin(), CoreIdx.end(), I) == CoreIdx.end())
            CoreIdx.push_back(I);
          break;
        }
    std::sort(CoreIdx.begin(), CoreIdx.end());
    for (size_t I : CoreIdx) {
      if (I < Path.size())
        LastCoreScopes.push_back(Scopes[Path[I]].Label);
      else
        LastCoreIdx.push_back(I - Path.size());
    }
    // One certified verdict: the minimized core under the caller's current
    // proof tag. Sat/Unknown checks have no certificate — a countermodel
    // is its own witness, and the engine treats Unknown as a failed proof.
    Sat.logQueryProof(Core, ProofTag);
  }
  LastConflicts = Sat.numConflicts() - ConflictsBefore;
  LastDecisions = Sat.numDecisions() - DecisionsBefore;

  LastModel.clear();
  if (R == SatResult::Sat) {
    // Report only over this check's vocabulary (base + path scopes +
    // current query): a warm session's atom map also holds every earlier
    // query's and every other scope's atoms, which would drown the
    // countermodel in unrelated diagnostics.
    auto InScope = [&](ExprRef Atom) {
      for (ScopeId S : Path)
        if (Scopes[S].Atoms.count(Atom))
          return true;
      return false;
    };
    for (const auto &[Atom, V] : Encoder.atoms())
      if (Sat.modelValue(V) &&
          (BaseAtoms.count(Atom) || QueryAtoms.count(Atom) || InScope(Atom)))
        LastModel.push_back(printAbstract(Atom));
    // Encoder.atoms() iterates in pointer order, which varies when several
    // threads share the interning factory; sort so diagnostics are stable.
    std::sort(LastModel.begin(), LastModel.end());
  }
  return R;
}

// --- One-shot facade ----------------------------------------------------------

void SmtSolver::assertFormula(ExprRef E) { Asserted.push_back(E); }

SatResult SmtSolver::check(int64_t MaxConflicts) {
  SmtSession Session(F);
  for (ExprRef E : Asserted)
    Session.assertBase(E);
  SatResult R = Session.check({}, MaxConflicts);
  LastConflicts = Session.conflicts();
  LastDecisions = Session.decisions();
  LastNumAtoms = Session.numAtoms();
  LastModel = Session.modelAtoms();
  return R;
}
