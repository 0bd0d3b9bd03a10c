//===- proof/ProofChecker.cpp - Independent RUP/DRAT checker ----------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "proof/ProofChecker.h"

#include <cstdlib>
#include <functional>

using namespace semcomm;
using namespace semcomm::proof;

size_t ProofChecker::KeyHash::operator()(const std::vector<int> &Key) const {
  size_t H = Key.size();
  for (int L : Key)
    H ^= std::hash<int>()(L) + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

int8_t ProofChecker::valueOf(int L) const {
  int V = std::abs(L);
  if (static_cast<size_t>(V) >= Val.size())
    return 0;
  int8_t A = Val[V];
  return L > 0 ? A : static_cast<int8_t>(-A);
}

void ProofChecker::ensureVar(int Var) {
  if (static_cast<size_t>(Var) >= Val.size())
    Val.resize(Var + 1, 0);
}

int ProofChecker::tryAssign(int L) {
  int8_t V = valueOf(L);
  if (V > 0)
    return 1;
  if (V < 0)
    return -1;
  int Var = std::abs(L);
  ensureVar(Var);
  Val[Var] = L > 0 ? 1 : -1;
  RootTrail.push_back(L);
  return 0;
}

bool ProofChecker::propagateFrom(size_t From) {
  for (size_t Head = From; Head < RootTrail.size(); ++Head) {
    size_t Code = litCode(-RootTrail[Head]);
    if (Code >= Occ.size())
      continue;
    // Compact the occurrence list while scanning it: entries of deleted
    // clauses are dropped, so a list stays as long as the literal's live
    // clauses, not its history. tryAssign never touches Occ.
    std::vector<size_t> &List = Occ[Code];
    size_t Keep = 0, Next = 0;
    bool Conflict = false;
    while (Next != List.size() && !Conflict) {
      size_t CI = List[Next++];
      if (!DB[CI].Alive)
        continue;
      List[Keep++] = CI;
      int Unassigned = 0, UnitLit = 0;
      bool Satisfied = false;
      for (int CL : DB[CI].Lits) {
        int8_t V = valueOf(CL);
        if (V > 0) {
          Satisfied = true;
          break;
        }
        if (V == 0) {
          UnitLit = CL;
          if (++Unassigned > 1)
            break;
        }
      }
      if (Satisfied || Unassigned > 1)
        continue;
      Conflict = Unassigned == 0 || tryAssign(UnitLit) < 0;
    }
    // On a conflict the unscanned tail is kept as it is.
    while (Next != List.size())
      List[Keep++] = List[Next++];
    List.resize(Keep);
    if (Conflict)
      return true;
  }
  return false;
}

void ProofChecker::undoTo(size_t Mark) {
  while (RootTrail.size() > Mark) {
    Val[std::abs(RootTrail.back())] = 0;
    RootTrail.pop_back();
  }
}

void ProofChecker::rebuildRoot() {
  std::fill(Val.begin(), Val.end(), static_cast<int8_t>(0));
  RootTrail.clear();
  TopConflict = HasEmptyInput;
  for (const auto &KV : UnitRef) {
    if (KV.second <= 0)
      continue;
    if (tryAssign(KV.first) < 0) {
      TopConflict = true;
      break;
    }
  }
  if (!TopConflict && propagateFrom(0))
    TopConflict = true;
  RootDirty = false;
}

void ProofChecker::flushRoot() {
  if (RootDirty)
    rebuildRoot();
}

bool ProofChecker::propagatesToConflict(const std::vector<int> &Assumptions) {
  if (TopConflict)
    return true;
  size_t Mark = RootTrail.size();
  bool Conflict = false;
  for (int A : Assumptions) {
    if (tryAssign(A) < 0) {
      Conflict = true;
      break;
    }
  }
  if (!Conflict)
    Conflict = propagateFrom(Mark);
  undoTo(Mark);
  return Conflict;
}

void ProofChecker::addUnit(int L) {
  ++UnitRef[L];
  if (TopConflict)
    return;
  size_t Mark = RootTrail.size();
  int R = tryAssign(L);
  if (R < 0 || (R == 0 && propagateFrom(Mark)))
    TopConflict = true;
}

void ProofChecker::addClause(const std::vector<int> &Lits) {
  size_t CI = DB.size();
  DB.push_back({Lits, true});
  ++AliveClauses;
  for (int L : Lits) {
    size_t Code = litCode(L);
    if (Code >= Occ.size())
      Occ.resize((Code | 1) + 1);
    Occ[Code].push_back(CI);
  }
  std::vector<int> Key = Lits;
  std::sort(Key.begin(), Key.end());
  ByKey[std::move(Key)].push_back(CI);
  if (TopConflict)
    return;
  // Fold the clause into the persistent root fixpoint.
  int Unassigned = 0, UnitLit = 0;
  bool Satisfied = false;
  for (int L : Lits) {
    int8_t V = valueOf(L);
    if (V > 0) {
      Satisfied = true;
      break;
    }
    if (V == 0) {
      UnitLit = L;
      if (++Unassigned > 1)
        break;
    }
  }
  if (Satisfied || Unassigned > 1)
    return;
  if (Unassigned == 0) {
    TopConflict = true;
    return;
  }
  size_t Mark = RootTrail.size();
  if (tryAssign(UnitLit) < 0 || propagateFrom(Mark))
    TopConflict = true;
}

std::string ProofChecker::removeClause(const std::vector<int> &Lits) {
  std::vector<int> Key = Lits;
  std::sort(Key.begin(), Key.end());
  auto It = ByKey.find(Key);
  if (It == ByKey.end() || It->second.empty())
    return "deletion of a clause the checker does not hold";
  size_t CI = It->second.back();
  It->second.pop_back();
  if (It->second.empty())
    ByKey.erase(It);
  DB[CI].Alive = false;
  std::vector<int>().swap(DB[CI].Lits);
  --AliveClauses;
  // The persistent fixpoint only shrinks if this clause could have forced
  // an assignment: under the current (clean) root state that requires all
  // but at most one of its literals false. With the state already dirty or
  // conflicting, stay conservative.
  if (RootDirty || TopConflict) {
    RootDirty = true;
    return "";
  }
  size_t FalseCount = 0;
  for (int L : Lits)
    if (valueOf(L) < 0)
      ++FalseCount;
  if (FalseCount + 1 >= Lits.size())
    RootDirty = true;
  return "";
}

bool ProofChecker::varOccursAlive(int Var) {
  for (int L : {Var, -Var}) {
    size_t Code = litCode(L);
    if (Code >= Occ.size())
      continue;
    std::vector<size_t> &List = Occ[Code];
    size_t Keep = 0;
    bool Found = false;
    for (size_t CI : List) {
      if (!DB[CI].Alive)
        continue;
      List[Keep++] = CI;
      Found = true;
    }
    List.resize(Keep);
    if (Found)
      return true;
  }
  return false;
}

CheckResult ProofChecker::check(const ProofTrace &Trace) {
  CheckResult R;
  auto Fatal = [&](size_t StepIdx, StepKind K, const std::string &Msg) {
    R.Error = "step " + std::to_string(StepIdx) + " (" +
              std::string(stepKindName(K)) + "): " + Msg;
    R.Ok = false;
    return R;
  };

  bool QueriesOk = true;
  const std::vector<Step> &Steps = Trace.steps();
  for (size_t I = 0; I < Steps.size(); ++I) {
    const Step &S = Steps[I];
    ++R.StepsChecked;
    switch (S.Kind) {
    case StepKind::Input: {
      if (S.Lits.empty()) {
        HasEmptyInput = true;
        TopConflict = true;
      } else if (S.Lits.size() == 1) {
        addUnit(S.Lits[0]);
      } else {
        addClause(S.Lits);
        R.PeakClauses = std::max(R.PeakClauses, AliveClauses);
      }
      break;
    }
    case StepKind::Derive: {
      flushRoot();
      if (S.Lits.empty()) {
        if (!TopConflict)
          return Fatal(I, S.Kind, "empty derived clause without a root "
                                  "conflict");
        break;
      }
      std::vector<int> Negated;
      Negated.reserve(S.Lits.size());
      for (int L : S.Lits)
        Negated.push_back(-L);
      if (!propagatesToConflict(Negated))
        return Fatal(I, S.Kind, "derived clause is not RUP over the live "
                                "database");
      if (S.Lits.size() == 1) {
        addUnit(S.Lits[0]);
      } else {
        addClause(S.Lits);
        R.PeakClauses = std::max(R.PeakClauses, AliveClauses);
      }
      break;
    }
    case StepKind::Delete: {
      if (S.Lits.empty())
        return Fatal(I, S.Kind, "malformed empty deletion");
      if (S.Lits.size() == 1) {
        auto It = UnitRef.find(S.Lits[0]);
        if (It == UnitRef.end() || It->second <= 0)
          return Fatal(I, S.Kind, "deletion of a unit the checker does not "
                                  "hold");
        if (--It->second == 0) {
          UnitRef.erase(It);
          RootDirty = true;
        }
      } else {
        std::string Err = removeClause(S.Lits);
        if (!Err.empty())
          return Fatal(I, S.Kind, Err);
      }
      break;
    }
    case StepKind::Recycle: {
      flushRoot();
      if (varOccursAlive(S.Var))
        return Fatal(I, S.Kind, "recycled variable " + std::to_string(S.Var) +
                                    " still occurs in a live clause");
      if (UnitRef.count(S.Var) || UnitRef.count(-S.Var))
        return Fatal(I, S.Kind, "recycled variable " + std::to_string(S.Var) +
                                    " is still pinned by a unit");
      if (valueOf(S.Var) != 0)
        return Fatal(I, S.Kind, "recycled variable " + std::to_string(S.Var) +
                                    " is still assigned at root");
      break;
    }
    case StepKind::Query: {
      flushRoot();
      ++R.QueriesChecked;
      QueryResult Q;
      Q.Tag = S.Tag;
      if (S.LiveClauses != AliveClauses) {
        // A live-count mismatch means the solver dropped or added a clause
        // without logging it; nothing after this point is trustworthy.
        Q.Error = "live-clause mismatch: solver reports " +
                  std::to_string(S.LiveClauses) + ", checker holds " +
                  std::to_string(AliveClauses);
        R.Queries.push_back(std::move(Q));
        return Fatal(I, S.Kind, R.Queries.back().Error);
      }
      if (TopConflict) {
        Q.Passed = true;
      } else if (S.Lits.empty()) {
        Q.Error = "empty core but the live database is not root-conflicting";
      } else {
        Q.Passed = propagatesToConflict(S.Lits);
        if (!Q.Passed)
          Q.Error = "core does not propagate to a conflict";
      }
      if (Q.Passed) {
        ++R.QueriesPassed;
      } else {
        // Not fatal: the failure is attributed to this tag alone (Q.Error)
        // and checking continues, so sibling queries still certify.
        // R.Error stays reserved for trace-wide trust failures.
        QueriesOk = false;
      }
      R.Queries.push_back(std::move(Q));
      break;
    }
    }
  }
  R.Ok = QueriesOk && R.Error.empty();
  return R;
}
