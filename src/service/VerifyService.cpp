//===- service/VerifyService.cpp - Verification service shard ------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "service/VerifyService.h"

#include "support/Timing.h"

#include <cassert>
#include <map>

using namespace semcomm;
using namespace semcomm::service;

VerifyService::VerifyService(const Catalog &C, const CatalogPlan &Plan,
                             const ServiceConfig &Cfg)
    : Eng(C.factory(), Cfg.SeqLenBound, Cfg.ConflictBudget),
      Sess(C.factory(), Plan, Cfg.ConflictBudget, Cfg.Certify) {}

const PairPlan &VerifyService::planFor(const ConditionEntry &E) {
  auto It = Plans.find(&E);
  if (It == Plans.end())
    It = Plans.emplace(&E, Eng.planPair(E)).first;
  return It->second;
}

void VerifyService::serveOne(const ResolvedRequest &RR, const PairPlan &PP,
                             std::vector<ServiceVerdict> &Out) {
  size_t KindIdx = static_cast<size_t>(RR.Req.Kind);
  ServiceVerdict V;
  V.Req = RR.Req;
  for (size_t Role = 0; Role != 2; ++Role) {
    const MethodPlan &MP = PP.Methods[2 * KindIdx + Role];
    SymbolicResult R;
    (Role == 0 ? V.Sound : V.Complete) =
        Sess.discharge(RR.FamIdx, PP.Key, MP, R);
  }
  Out.push_back(std::move(V));
}

std::vector<ServiceVerdict> VerifyService::drain() {
  Stopwatch Timer;
  std::vector<ServiceVerdict> Out;
  if (Pending.empty())
    return Out;
  ++Drains;

  // Group pending requests by family, then by pair, both in
  // first-appearance order: every request of a (family, pair) group is
  // served against one warm pair scope, and the scope retires when its
  // group completes.
  struct Group {
    const ConditionEntry *Entry;
    std::vector<const ResolvedRequest *> Reqs;
  };
  std::vector<size_t> FamOrder;
  std::map<size_t, std::vector<Group>> Groups;
  for (const ResolvedRequest &RR : Pending) {
    std::vector<Group> &FamGroups = Groups[RR.FamIdx];
    if (FamGroups.empty())
      FamOrder.push_back(RR.FamIdx);
    Group *G = nullptr;
    for (Group &Cand : FamGroups)
      if (Cand.Entry == RR.Entry) {
        G = &Cand;
        break;
      }
    if (!G) {
      FamGroups.push_back({RR.Entry, {}});
      G = &FamGroups.back();
    }
    G->Reqs.push_back(&RR);
  }
  for (size_t FamIdx : FamOrder)
    for (const Group &G : Groups[FamIdx]) {
      const PairPlan &PP = planFor(*G.Entry);
      ++PairGroups;
      for (const ResolvedRequest *RR : G.Reqs)
        serveOne(*RR, PP, Out);
      Sess.retirePair(FamIdx, PP.Key);
    }

  Requests += Pending.size();
  Pending.clear();
  ServeMillis += Timer.millis();
  return Out;
}

ServiceStats VerifyService::stats() const {
  ServiceStats S;
  S.Requests = Requests;
  S.Drains = Drains;
  S.PairGroups = PairGroups;
  S.BatchedReuses = Requests - PairGroups;
  S.MethodsDischarged = 2 * Requests;
  S.PlansBuilt = Plans.size();
  S.ServeMillis = ServeMillis;
  S.Session = Sess.stats();
  return S;
}

void VerifyService::restoreCounters(uint64_t Served, uint64_t DrainCount,
                                    uint64_t Groups) {
  assert(Requests == 0 && Pending.empty() && "restore into a fresh shard");
  Requests = Served;
  Drains = DrainCount;
  PairGroups = Groups;
}
