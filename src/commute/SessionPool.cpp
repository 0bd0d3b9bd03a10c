//===- commute/SessionPool.cpp - Warm and cold solver sessions ------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "commute/SessionPool.h"
#include "support/Timing.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <memory>

using namespace semcomm;

namespace {

/// Discharges every split of \p Plan in session scope \p Scope — the
/// shared tail of CatalogSession::discharge and dischargeCold, so the split
/// loop, core-label recording, countermodel assembly, and the
/// Unsupported-trump rule cannot drift between the warm and cold paths.
/// \p SessionForSplit returns the session each split runs on (the cold
/// path opens one per split, and runs at its root); \p PeakRetained, set
/// on the warm path only, tracks the retained-clause high-water mark
/// across checks, and the method records the clauses its warm session
/// retains.
bool dischargeSplits(const MethodPlan &Plan, int64_t Budget,
                     SmtSession::ScopeId Scope, uint64_t *PeakRetained,
                     const std::function<SmtSession &()> &SessionForSplit,
                     SymbolicResult &R) {
  auto AddCoreLabel = [&R](const std::string &L) {
    if (std::find(R.CoreLabels.begin(), R.CoreLabels.end(), L) ==
        R.CoreLabels.end())
      R.CoreLabels.push_back(L);
  };

  bool Ok = true;
  size_t FailedAt = Plan.Splits.size();
  // Proof tag prefix: the scope path identifies the method within the
  // session (the split index, appended per split, disambiguates its
  // checks). proof::canonicalTag spells it as SmtSession::setProofTag
  // does, so the tags recorded here match the certified query tags byte
  // for byte. Built at the first split: the cold path has no session
  // before.
  std::string TagPrefix;
  for (size_t SI = 0; SI != Plan.Splits.size(); ++SI) {
    const VcSplit &Split = Plan.Splits[SI];
    SmtSession &Session = SessionForSplit();

    std::vector<ExprRef> Assumed;
    for (const TaggedAssumption &A : Split.Assumed)
      Assumed.push_back(A.E);

    std::string Tag;
    if (Session.certifying()) {
      if (SI == 0) {
        for (const std::string &L : Session.scopePathLabels(Scope))
          TagPrefix += (TagPrefix.empty() ? "" : "|") + L;
        if (TagPrefix.empty())
          TagPrefix = Plan.Name;
        TagPrefix = proof::canonicalTag(std::move(TagPrefix)) + '#';
      }
      Tag = TagPrefix + std::to_string(SI);
      Session.setProofTag(Tag);
    }

    SatResult Out = Session.check(Assumed, Budget, Scope);
    R.SatConflicts += Session.conflicts();
    R.MaxVcConflicts = std::max(R.MaxVcConflicts, Session.conflicts());
    ++R.NumVcs;
    if (PeakRetained) {
      R.RetainedClauses = Session.retainedClauses();
      *PeakRetained = std::max(*PeakRetained, R.RetainedClauses);
    }

    if (Out == SatResult::Unsat) {
      for (const std::string &L : Session.lastCoreScopeLabels())
        AddCoreLabel(L);
      for (size_t I : Session.lastCoreAssumptionIndices())
        AddCoreLabel(Split.Assumed[I].Label);
      if (!Tag.empty()) {
        // An Unsat verdict is a claim — record the certificate tag the
        // checker must later confirm for this method.
        R.ProofQueryTags.push_back(std::move(Tag));
        ++R.ProofQueries;
      }
      continue;
    }

    R.LastOutcome = Out;
    std::string Atoms;
    for (const std::string &A : Session.modelAtoms())
      Atoms += A + "; ";
    R.Countermodel = Split.Label.empty() ? Atoms : Split.Label + ": " + Atoms;
    Ok = false;
    FailedAt = SI;
    break;
  }

  // An out-of-fragment atom trumps whatever the truncated final split said
  // (the lowering replaced the atom by a free variable, so that split's
  // verdict is meaningless).
  if (Plan.Unsupported && (Ok || FailedAt + 1 == Plan.Splits.size())) {
    R.Countermodel = Plan.UnsupportedNote;
    Ok = false;
  }
  return Ok;
}

} // namespace

const char *semcomm::solveModeName(SolveMode M) {
  switch (M) {
  case SolveMode::OneShot:
    return "oneshot";
  case SolveMode::PerMethod:
    return "per-method";
  case SolveMode::SharedPair:
    return "shared-pair";
  case SolveMode::SharedFamily:
    return "shared-family";
  case SolveMode::SharedCatalog:
    return "shared-catalog";
  }
  return "shared-pair";
}

void semcomm::backfillCertification(const proof::CertifySummary &S,
                                    SymbolicResult &R) {
  R.ProofClauses = S.PeakClauses;
  R.ProofChecked = S.Error.empty() && S.allPassed(R.ProofQueryTags);
}

PairOutcome semcomm::dischargeCold(ExprFactory &F,
                                   const std::vector<MethodPlan> &Plans,
                                   int64_t Budget, bool Certify) {
  PairOutcome Out;
  proof::CertifySummary Cert;
  std::unique_ptr<SmtSession> Session;

  // Folds the open session's totals and certification summary into the
  // outcome: the session's checker dies with it.
  auto Close = [&] {
    if (!Session)
      return;
    Out.Checks += Session->numChecks();
    Out.Conflicts += Session->totalConflicts();
    Out.DbReductions += static_cast<uint64_t>(Session->dbReductions());
    Out.ReclaimedClauses +=
        static_cast<uint64_t>(Session->reclaimedClauses());
    Out.RetainedClauses = Session->retainedClauses();
    if (Certify)
      Cert.fold(Session->finishCertification());
    Session.reset();
  };
  auto Open = [&](const MethodPlan &Plan) -> SmtSession & {
    Close();
    Session = std::make_unique<SmtSession>(F);
    if (Certify)
      Session->enableCertification();
    ++Out.SessionsOpened;
    std::set<ExprRef> Asserted;
    for (ExprRef C : Plan.Common)
      if (Asserted.insert(C).second)
        Session->assertBase(C);
    for (const TaggedAssumption &S : Plan.Scoped)
      Session->assertBase(S.E);
    return *Session;
  };

  for (const MethodPlan &Plan : Plans) {
    Stopwatch Timer;
    SymbolicResult R;
    uint64_t RedBefore = Out.DbReductions;
    uint64_t RecBefore = Out.ReclaimedClauses;
    R.Verified = dischargeSplits(
        Plan, Budget, SmtSession::RootScope, /*PeakRetained=*/nullptr,
        [&]() -> SmtSession & { return Open(Plan); }, R);
    Close();
    R.DbReductions = Out.DbReductions - RedBefore;
    R.ReclaimedClauses = Out.ReclaimedClauses - RecBefore;
    Out.MethodMillis.push_back(Timer.millis());
    Out.Methods.push_back(std::move(R));
  }
  if (Certify) {
    Out.stampCertification(Cert);
    for (SymbolicResult &R : Out.Methods)
      backfillCertification(Cert, R);
  }
  return Out;
}

SymbolicResult semcomm::dischargePlan(ExprFactory &F, const MethodPlan &Plan,
                                      SolveMode Mode, int64_t Budget,
                                      bool Certify) {
  if (isColdMode(Mode))
    return std::move(dischargeCold(F, {Plan}, Budget, Certify).Methods[0]);
  CatalogPlan CP{Plan.Common, {{Plan.Name, {PairPlan{Plan.Name, {}}}}}};
  CatalogSession Sess(F, CP, Budget, Certify);
  SymbolicResult R;
  R.Verified = Sess.discharge(0, Plan.Name, Plan, R);
  if (Certify)
    backfillCertification(Sess.finishCertification(), R);
  return R;
}

//===----------------------------------------------------------------------===//
// CatalogSession
//===----------------------------------------------------------------------===//

CatalogSession::CatalogSession(ExprFactory &F, const CatalogPlan &Plan,
                               int64_t Budget, bool Certify,
                               proof::ProofTrace *ProofRecorder)
    : Plan(Plan), Budget(Budget), Session(F) {
  // Certification must switch on before the first assertion reaches the
  // solver — the proof's Input steps have to cover the whole database.
  if (Certify)
    Session.enableCertification(ProofRecorder);
  for (ExprRef C : Plan.CatalogCommon)
    if (CatalogBase.insert(C).second) {
      Session.assertBase(C);
      ++Stats.PrefixAsserts;
    }
  // The sole pair of a one-pair plan needs no selector of its own: its
  // method scopes sit directly under the root and each guarded formula
  // carries one selector, not two.
  std::vector<PairId> Pairs;
  for (size_t FI = 0; FI != Plan.Families.size(); ++FI)
    for (const PairPlan &PP : Plan.Families[FI].Pairs)
      Pairs.push_back({FI, PP.Key});
  if (Pairs.size() == 1)
    RootPair = Pairs.front();
}

CatalogSession::PairScope &CatalogSession::ensurePair(const PairId &Id) {
  assert(Id.first < Plan.Families.size() &&
         "family index outside the catalog plan");
  auto It = LivePairs.find(Id);
  if (It != LivePairs.end())
    return It->second;
  PairScope &PS = LivePairs[Id];
  ++Stats.PairsOpened;
  if (Id == RootPair)
    return PS; // The root pair's prefix is the session base.
  // The pair scope owns a Tseitin layer: its formulas' definition vars
  // retire — and their indices recycle — with the scope. A retired pair
  // re-opens as a fresh scope with a fresh selector. The label names the
  // family: pair keys repeat across families, and proof tags are built
  // from scope labels.
  PS.Scope = Session.openScope(
      SmtSession::RootScope, /*OwnLayer=*/true,
      "pair:" + Plan.Families[Id.first].FamilyName + "/" + Id.second);
  ++SelectorCount;
  return PS;
}

bool CatalogSession::discharge(size_t FamIdx, const std::string &PairKey,
                               const MethodPlan &MPlan, SymbolicResult &R) {
  PairScope &PS = ensurePair({FamIdx, PairKey});

  // Pair-common prefix: formulas already in the catalog base are reuses;
  // the remainder is asserted once in the pair's scope. It cannot join the
  // base: planCatalog already hoists every formula that is sound there.
  for (ExprRef C : MPlan.Common) {
    if (!CatalogBase.count(C) && PS.AssertedCommon.insert(C).second) {
      Session.assertInScope(PS.Scope, C);
      ++Stats.PrefixAsserts;
    } else {
      ++Stats.PrefixReuses;
    }
  }

  // Method selector, nested under the pair's. A repeated name with a
  // different prefix (e.g. a mutated entry whose methods share names with
  // the original's) gets a fresh selector instead of inheriting the old
  // prefix. The fingerprint is the plan's prefix content; hash-consing
  // makes pointer equality structural equality. Method scopes share the
  // pair's Tseitin layer — they retire only with the pair.
  std::vector<ExprRef> Fingerprint = MPlan.Common;
  Fingerprint.push_back(nullptr); // Separator: Common vs Scoped.
  for (const TaggedAssumption &S : MPlan.Scoped)
    Fingerprint.push_back(S.E);
  std::vector<PlanSelectorEntry> &Entries = PS.Methods[MPlan.Name];
  SmtSession::ScopeId MScope = SmtSession::RootScope;
  for (const PlanSelectorEntry &E : Entries)
    if (E.Fingerprint == Fingerprint) {
      MScope = E.Scope;
      break;
    }
  if (MScope == SmtSession::RootScope) {
    MScope = Session.openScope(PS.Scope, /*OwnLayer=*/false,
                               "sel:" + MPlan.Name);
    Entries.push_back({Fingerprint, MScope});
    ++SelectorCount;
    for (const TaggedAssumption &S : MPlan.Scoped)
      Session.assertInScope(MScope, S.E);
  }

  uint64_t RedBefore = dbReductions();
  uint64_t RecBefore = reclaimedClauses();
  bool Ok = dischargeSplits(
      MPlan, Budget, MScope, &Stats.PeakRetainedClauses,
      [this]() -> SmtSession & { return Session; }, R);
  R.DbReductions += dbReductions() - RedBefore;
  R.ReclaimedClauses += reclaimedClauses() - RecBefore;
  return Ok;
}

size_t CatalogSession::retirePair(size_t FamIdx, const std::string &PairKey) {
  auto It = LivePairs.find({FamIdx, PairKey});
  if (It == LivePairs.end())
    return 0;
  // The root pair has no scope of its own: its method scopes stay under
  // the root, unreachable once their bookkeeping is dropped (a re-opened
  // root pair opens fresh method scopes).
  size_t Evicted = It->second.Scope != SmtSession::RootScope
                       ? Session.retireScope(It->second.Scope)
                       : 0;
  LivePairs.erase(It);
  ++Stats.PairsRetired;
  Stats.EvictedClauses += Evicted;
  return Evicted;
}

CatalogSessionStats CatalogSession::stats() const {
  CatalogSessionStats S = Stats;
  S.RecycledVars = static_cast<uint64_t>(Session.recycledVars());
  S.PeakLiveVars = static_cast<uint64_t>(Session.peakLiveVars());
  S.PeakLiveClauses = static_cast<uint64_t>(Session.peakClauses());
  S.VarRequests = static_cast<uint64_t>(Session.varRequests());
  S.ReleasedSelectors = static_cast<uint64_t>(Session.releasedSelectors());
  S.LiveBridges = static_cast<uint64_t>(Session.liveBridges());
  S.PeakLiveBridges = static_cast<uint64_t>(Session.peakLiveBridges());
  return S;
}
