//===- proof/ProofChecker.cpp - Independent RUP/DRAT checker ----------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "proof/ProofChecker.h"

#include <cstddef>
#include <cstdlib>

using namespace semcomm;
using namespace semcomm::proof;

int8_t ProofChecker::valueOf(int L) const {
  size_t V = static_cast<size_t>(std::abs(L));
  if (V >= Val.size())
    return 0;
  int8_t A = Val[V];
  return L > 0 ? A : static_cast<int8_t>(-A);
}

void ProofChecker::ensureVar(int Var) {
  size_t V = static_cast<size_t>(Var);
  if (V < Val.size())
    return;
  Val.resize(V + 1, 0);
  Occurrences.resize(V + 1, 0);
  Units.resize(2 * V + 2, 0);
  Watches.resize(2 * V + 2);
}

int ProofChecker::tryAssign(int L) {
  int8_t V = valueOf(L);
  if (V > 0)
    return 1;
  if (V < 0)
    return -1;
  int Var = std::abs(L);
  ensureVar(Var);
  Val[static_cast<size_t>(Var)] = L > 0 ? 1 : -1;
  RootTrail.push_back(L);
  return 0;
}

bool ProofChecker::propagateFrom(size_t Head) {
  for (; Head < RootTrail.size(); ++Head) {
    int FalseLit = -RootTrail[Head];
    std::vector<Watcher> &List = Watches[litCode(FalseLit)];
    size_t Keep = 0, Next = 0;
    bool Conflict = false;
    while (Next != List.size() && !Conflict) {
      Watcher W = List[Next++];
      const ClauseRef &C = DB[W.Clause];
      if (C.Size == 0)
        continue; // Deleted: drop the entry.
      if (valueOf(W.Blocker) > 0) {
        List[Keep++] = W;
        continue;
      }
      int *Lits = &Arena[C.Start];
      if (Lits[0] == FalseLit)
        std::swap(Lits[0], Lits[1]);
      int Other = Lits[0];
      W.Blocker = Other;
      if (valueOf(Other) > 0) {
        List[Keep++] = W;
        continue;
      }
      // Move the watch to a non-false literal if the clause has one (never
      // FalseLit's own list, so List stays valid).
      uint32_t K = 2;
      while (K != C.Size && valueOf(Lits[K]) < 0)
        ++K;
      if (K != C.Size) {
        std::swap(Lits[1], Lits[K]);
        Watches[litCode(Lits[1])].push_back(W);
        continue;
      }
      List[Keep++] = W;
      // Unit or conflicting under the current assignment.
      Conflict = valueOf(Other) < 0 || tryAssign(Other) < 0;
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
    Val[static_cast<size_t>(std::abs(RootTrail.back()))] = 0;
    RootTrail.pop_back();
  }
}

void ProofChecker::rebuildRoot() {
  // Watch positions stay as they are: with every variable unassigned, any
  // two literals of a clause are a valid watch pair.
  std::fill(Val.begin(), Val.end(), static_cast<int8_t>(0));
  RootTrail.clear();
  TopConflict = HasEmptyInput;
  for (size_t V = 1; V < Val.size() && !TopConflict; ++V)
    for (int L : {static_cast<int>(V), -static_cast<int>(V)})
      if (Units[litCode(L)] != 0 && tryAssign(L) < 0) {
        TopConflict = true;
        break;
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
  ensureVar(std::abs(L));
  ++Units[litCode(L)];
  if (TopConflict)
    return;
  size_t Mark = RootTrail.size();
  int Res = tryAssign(L);
  if (Res < 0 || (Res == 0 && propagateFrom(Mark)))
    TopConflict = true;
}

void ProofChecker::watchClause(uint32_t CI) {
  const int *Lits = &Arena[DB[CI].Start];
  Watches[litCode(Lits[0])].push_back({CI, Lits[1]});
  Watches[litCode(Lits[1])].push_back({CI, Lits[0]});
}

uint64_t ProofChecker::keyOf(const int *Lits, size_t N) {
  // A sum of mixed literals: independent of literal order, so neither a
  // clause nor a deletion record needs sorting to find its bucket.
  uint64_t H = N;
  for (size_t I = 0; I != N; ++I) {
    uint64_t Z = static_cast<uint64_t>(static_cast<int64_t>(Lits[I])) +
                 0x9e3779b97f4a7c15ULL;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    H += Z ^ (Z >> 31);
  }
  return H;
}

void ProofChecker::buildKeyIndex() {
  ByKey.clear();
  for (uint32_t CI = 0; CI != DB.size(); ++CI)
    if (DB[CI].Size != 0)
      ByKey[keyOf(&Arena[DB[CI].Start], DB[CI].Size)].push_back(CI);
  KeyIndexBuilt = true;
}

void ProofChecker::addClause(const std::vector<int> &Lits) {
  uint32_t CI = static_cast<uint32_t>(DB.size());
  uint32_t Start = static_cast<uint32_t>(Arena.size());
  uint32_t Size = static_cast<uint32_t>(Lits.size());
  Arena.insert(Arena.end(), Lits.begin(), Lits.end());
  DB.push_back({Start, Size});
  ++AliveClauses;
  LiveLits += Size;
  for (int L : Lits) {
    ensureVar(std::abs(L));
    ++Occurrences[static_cast<size_t>(std::abs(L))];
  }
  if (KeyIndexBuilt)
    ByKey[keyOf(Lits.data(), Size)].push_back(CI);

  // Watch two non-false literals when the clause has them; then it is
  // neither unit nor conflicting under the root state. Otherwise the
  // remaining watch sits on a root-false literal, which only a rebuild
  // (clearing every assignment) unassigns.
  int *C = &Arena[Start];
  uint32_t NonFalse = 0;
  if (!TopConflict)
    for (uint32_t K = 0; K != Size && NonFalse < 2; ++K)
      if (valueOf(C[K]) >= 0)
        std::swap(C[NonFalse++], C[K]);
  watchClause(CI);
  if (TopConflict || NonFalse == 2 || valueOf(C[0]) > 0)
    return;
  // Fold the clause into the persistent root fixpoint.
  if (NonFalse == 0) {
    TopConflict = true;
    return;
  }
  size_t Mark = RootTrail.size();
  if (tryAssign(C[0]) < 0 || propagateFrom(Mark))
    TopConflict = true;
}

void ProofChecker::addLemma(const std::vector<int> &Lits) {
  if (Lits.size() == 1) {
    addUnit(Lits[0]);
    return;
  }
  addClause(Lits);
  R.PeakClauses = std::max(R.PeakClauses, AliveClauses);
}

std::string ProofChecker::removeClause(const std::vector<int> &Lits) {
  if (!KeyIndexBuilt)
    buildKeyIndex();
  auto It = ByKey.find(keyOf(Lits.data(), Lits.size()));
  if (It == ByKey.end())
    return "deletion of a clause the checker does not hold";
  // The latest alive clause with the same literal multiset.
  KeyScratch = Lits;
  std::sort(KeyScratch.begin(), KeyScratch.end());
  std::vector<uint32_t> &Bucket = It->second;
  size_t Pos = Bucket.size();
  while (Pos != 0) {
    const ClauseRef &C = DB[Bucket[Pos - 1]];
    if (C.Size == Lits.size()) {
      Scratch.assign(Arena.begin() + C.Start,
                     Arena.begin() + C.Start + C.Size);
      std::sort(Scratch.begin(), Scratch.end());
      if (Scratch == KeyScratch)
        break;
    }
    --Pos;
  }
  if (Pos == 0)
    return "deletion of a clause the checker does not hold";
  uint32_t CI = Bucket[Pos - 1];
  Bucket.erase(Bucket.begin() + static_cast<std::ptrdiff_t>(Pos - 1));
  if (Bucket.empty())
    ByKey.erase(It);
  for (int L : Lits)
    --Occurrences[static_cast<size_t>(std::abs(L))];
  DB[CI].Size = 0;
  --AliveClauses;
  LiveLits -= Lits.size();
  DeadLits += Lits.size();
  // The persistent fixpoint only shrinks if this clause could have forced
  // an assignment: under the current (clean) root state that requires all
  // but at most one of its literals false. With the state already dirty or
  // conflicting, stay conservative.
  if (RootDirty || TopConflict) {
    RootDirty = true;
  } else {
    size_t FalseCount = 0;
    for (int L : Lits)
      if (valueOf(L) < 0)
        ++FalseCount;
    if (FalseCount + 1 >= Lits.size())
      RootDirty = true;
  }
  if (DeadLits > LiveLits && DeadLits >= 1024)
    compact();
  return "";
}

void ProofChecker::compact() {
  std::vector<int> NewArena;
  NewArena.reserve(LiveLits);
  size_t Out = 0;
  for (const ClauseRef &C : DB) {
    if (C.Size == 0)
      continue;
    uint32_t Start = static_cast<uint32_t>(NewArena.size());
    NewArena.insert(NewArena.end(), Arena.begin() + C.Start,
                    Arena.begin() + C.Start + C.Size);
    DB[Out++] = {Start, C.Size};
  }
  DB.resize(Out);
  DB.shrink_to_fit();
  Arena = std::move(NewArena);
  DeadLits = 0;
  // The survivors keep their watched literals in slots 0 and 1, so the
  // watch invariant carries over; only the clause numbers changed.
  for (std::vector<Watcher> &List : Watches)
    List.clear();
  for (uint32_t CI = 0; CI != DB.size(); ++CI)
    watchClause(CI);
  buildKeyIndex();
}

bool ProofChecker::begin() {
  if (Failed)
    return false;
  ++R.StepsChecked;
  return true;
}

void ProofChecker::fatal(StepKind K, const std::string &Msg) {
  R.Error = "step " + std::to_string(R.StepsChecked - 1) + " (" +
            std::string(stepKindName(K)) + "): " + Msg;
  R.Ok = false;
  Failed = true;
}

void ProofChecker::recordQuery(const std::string &Tag, bool Passed,
                               const char *Error) {
  if (Passed)
    ++R.QueriesPassed;
  else
    // Not fatal: the failure is attributed to this tag alone and checking
    // continues, so sibling queries still certify. R.Error stays reserved
    // for trace-wide trust failures.
    R.Ok = false;
  if (Outcomes)
    Outcomes->recordQuery(Tag, Passed);
  else
    R.Queries.push_back({Tag, Passed, Error});
}

void ProofChecker::addInput(const std::vector<int> &Lits) {
  if (!begin())
    return;
  if (Lits.empty()) {
    HasEmptyInput = true;
    TopConflict = true;
    return;
  }
  addLemma(Lits);
}

void ProofChecker::addDerive(const std::vector<int> &Lits) {
  if (!begin())
    return;
  flushRoot();
  if (Lits.empty()) {
    if (!TopConflict)
      fatal(StepKind::Derive, "empty derived clause without a root "
                              "conflict");
    return;
  }
  std::vector<int> &Negated = Scratch;
  Negated.clear();
  for (int L : Lits)
    Negated.push_back(-L);
  if (!propagatesToConflict(Negated)) {
    fatal(StepKind::Derive, "derived clause is not RUP over the live "
                            "database");
    return;
  }
  addLemma(Lits);
}

void ProofChecker::addDelete(const std::vector<int> &Lits) {
  if (!begin())
    return;
  if (Lits.empty()) {
    fatal(StepKind::Delete, "malformed empty deletion");
    return;
  }
  if (Lits.size() == 1) {
    size_t V = static_cast<size_t>(std::abs(Lits[0]));
    if (V >= Val.size() || Units[litCode(Lits[0])] == 0) {
      fatal(StepKind::Delete, "deletion of a unit the checker does not "
                              "hold");
      return;
    }
    if (--Units[litCode(Lits[0])] == 0)
      RootDirty = true;
    return;
  }
  std::string Err = removeClause(Lits);
  if (!Err.empty())
    fatal(StepKind::Delete, Err);
}

void ProofChecker::addRecycle(int Var) {
  if (!begin())
    return;
  flushRoot();
  size_t V = static_cast<size_t>(std::abs(Var));
  if (V < Val.size() && Occurrences[V] != 0) {
    fatal(StepKind::Recycle, "recycled variable " + std::to_string(Var) +
                                 " still occurs in a live clause");
    return;
  }
  if (V < Val.size() &&
      (Units[litCode(Var)] != 0 || Units[litCode(-Var)] != 0)) {
    fatal(StepKind::Recycle, "recycled variable " + std::to_string(Var) +
                                 " is still pinned by a unit");
    return;
  }
  if (valueOf(Var) != 0)
    fatal(StepKind::Recycle, "recycled variable " + std::to_string(Var) +
                                 " is still assigned at root");
}

void ProofChecker::addQuery(const std::vector<int> &Core,
                            uint64_t LiveClauses, const std::string &Tag) {
  if (!begin())
    return;
  flushRoot();
  ++R.QueriesChecked;
  if (LiveClauses != AliveClauses) {
    // A live-count mismatch means the solver dropped or added a clause
    // without logging it; nothing after this point is trustworthy.
    std::string Msg = "live-clause mismatch: solver reports " +
                      std::to_string(LiveClauses) + ", checker holds " +
                      std::to_string(AliveClauses);
    recordQuery(Tag, false, Msg.c_str());
    fatal(StepKind::Query, Msg);
    return;
  }
  if (TopConflict)
    recordQuery(Tag, true, "");
  else if (Core.empty())
    recordQuery(Tag, false,
                "empty core but the live database is not root-conflicting");
  else if (propagatesToConflict(Core))
    recordQuery(Tag, true, "");
  else
    recordQuery(Tag, false, "core does not propagate to a conflict");
}

CheckResult ProofChecker::check(const ProofTrace &Trace) {
  for (const Step &S : Trace.steps()) {
    if (Failed)
      break;
    switch (S.Kind) {
    case StepKind::Input:
      addInput(S.Lits);
      break;
    case StepKind::Derive:
      addDerive(S.Lits);
      break;
    case StepKind::Delete:
      addDelete(S.Lits);
      break;
    case StepKind::Recycle:
      addRecycle(S.Var);
      break;
    case StepKind::Query:
      addQuery(S.Lits, S.LiveClauses, S.Tag);
      break;
    }
  }
  return R;
}
