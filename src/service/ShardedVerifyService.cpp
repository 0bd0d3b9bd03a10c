//===- service/ShardedVerifyService.cpp - Sharded serving front-end ----------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "service/ShardedVerifyService.h"

#include "support/Timing.h"

#include <cmath>

using namespace semcomm;
using namespace semcomm::service;

namespace {

/// Stable 64-bit FNV-1a — the routing hash must not vary across runs,
/// platforms, or standard libraries.
uint64_t fnv1a(const std::string &S, uint64_t H = 1469598103934665603ull) {
  for (char Ch : S) {
    H ^= static_cast<unsigned char>(Ch);
    H *= 1099511628211ull;
  }
  return H;
}

const char *routeName(RouteBy R) {
  return R == RouteBy::Pair ? "pair" : "family";
}

/// The config block of a snapshot: every ServiceConfig field plus the
/// shard count and routing (not Threads: it never changes a verdict, a
/// log or a counter).
json::Value configImage(const ShardedServiceConfig &Cfg) {
  const ServiceConfig &B = Cfg.Base;
  json::Value V = json::Value::object();
  V.set("certify", json::Value::boolean(B.Certify));
  V.set("seq_len_bound", json::Value::integer(B.SeqLenBound));
  V.set("conflict_budget", json::Value::integer(B.ConflictBudget));
  V.set("shards", json::Value::integer(Cfg.Shards));
  V.set("route", json::Value::string(routeName(Cfg.Route)));
  return V;
}

json::Value verdictRow(const ServiceVerdict &V) {
  json::Value Row = json::Value::object();
  Row.set("family", json::Value::string(V.Req.Family));
  Row.set("op1", json::Value::string(V.Req.Op1));
  Row.set("op2", json::Value::string(V.Req.Op2));
  Row.set("kind", json::Value::string(conditionKindName(V.Req.Kind)));
  Row.set("sound", json::Value::boolean(V.Sound));
  Row.set("complete", json::Value::boolean(V.Complete));
  return Row;
}

json::Value counter(uint64_t N) {
  return json::Value::integer(static_cast<int64_t>(N));
}

/// The largest number a snapshot may hold: 2^53, the last integer a
/// double represents exactly. Counters are uint64_t written as int64, so a
/// restored counter near INT64_MAX would wrap negative at the next
/// snapshot; no run serves anywhere near 2^53 requests.
constexpr double MaxSnapshotNumber = 9007199254740992.0;

/// Checks that \p Got is an object with exactly \p Want's members, in
/// order and of the same kinds, every number finite, non-negative and at
/// most 2^53 — the layout snapshot() writes, so whatever restore() accepts
/// re-snapshots to the same image. \p Where names \p Got ("" at the
/// root).
bool sameLayout(const json::Value &Got, const json::Value &Want,
                const std::string &Where, std::string &Error) {
  auto Field = [&](const std::string &Key) {
    return "snapshot field '" + (Where.empty() ? Key : Where + "." + Key) +
           "' ";
  };
  if (!Got.isObject()) {
    Error = "snapshot field '" + Where + "' is not an object";
    return false;
  }
  const auto &Have = Got.members();
  const auto &Need = Want.members();
  for (size_t I = 0; I != Need.size(); ++I) {
    const std::string &Key = Need[I].first;
    if (I == Have.size() || Have[I].first != Key) {
      Error = Field(Key) + (Got.find(Key) ? "is out of order" : "is missing");
      return false;
    }
    const json::Value &V = Have[I].second;
    if (V.kind() != Need[I].second.kind()) {
      Error = Field(Key) + "has the wrong type";
      return false;
    }
    if (V.isNumber() && !(V.asDouble() >= 0 && std::isfinite(V.asDouble()))) {
      Error = Field(Key) + "is negative or not finite";
      return false;
    }
    if (V.isNumber() && V.asDouble() > MaxSnapshotNumber) {
      Error = Field(Key) + "is above 2^53";
      return false;
    }
  }
  if (Have.size() == Need.size())
    return true;
  Error = Field(Have[Need.size()].first) + "is unknown";
  return false;
}

} // namespace

ShardedVerifyService::ShardedVerifyService(
    const Catalog &C, const std::vector<const Family *> &Fams,
    const ShardedServiceConfig &Config)
    : C(C), Fams(Fams), Cfg(Config) {
  if (Cfg.Shards == 0)
    Cfg.Shards = 1;
  for (size_t I = 0; I != Fams.size(); ++I)
    FamIdxByName.emplace(Fams[I]->Name, I);

  Stopwatch PlanTimer;
  {
    SymbolicEngine Planner(C.factory(), Cfg.Base.SeqLenBound,
                           Cfg.Base.ConflictBudget);
    Plan = Planner.planCatalog(C, Fams);
  }
  PlanMillis = PlanTimer.millis();

  Shards.reserve(Cfg.Shards);
  WarmupMillis.resize(Cfg.Shards, 0);
  for (unsigned S = 0; S != Cfg.Shards; ++S) {
    Stopwatch WarmTimer;
    Shards.push_back(std::make_unique<VerifyService>(C, Plan, Cfg.Base));
    WarmupMillis[S] = WarmTimer.millis();
  }

  if (Cfg.Threads > 1)
    Pool = std::make_unique<ThreadPool>(Cfg.Threads);
}

size_t ShardedVerifyService::shardOf(const ServiceRequest &R) const {
  uint64_t H = fnv1a(R.Family);
  if (Cfg.Route == RouteBy::Pair)
    H = fnv1a(R.Op1 + "," + R.Op2, H ^ 0x9e3779b97f4a7c15ull);
  return static_cast<size_t>(H % Shards.size());
}

bool ShardedVerifyService::resolve(const ServiceRequest &R,
                                   ResolvedRequest &Out,
                                   std::string &Error) const {
  auto FI = FamIdxByName.find(R.Family);
  if (FI == FamIdxByName.end()) {
    Error = "family '" + R.Family + "' is not served by this service";
    return false;
  }
  for (const ConditionEntry &E : C.entries(*Fams[FI->second]))
    if (E.op1().Name == R.Op1 && E.op2().Name == R.Op2) {
      Out = {R, FI->second, &E};
      return true;
    }
  Error = "no catalog entry for pair (" + R.Op1 + ", " + R.Op2 +
          ") in family " + R.Family;
  return false;
}

bool ShardedVerifyService::submit(const ServiceRequest &R,
                                  std::string &Error) {
  ResolvedRequest RR;
  if (!resolve(R, RR, Error))
    return false;
  Shards[shardOf(R)]->submit(RR);
  Error.clear();
  return true;
}

size_t ShardedVerifyService::pending() const {
  size_t N = 0;
  for (const auto &S : Shards)
    N += S->pending();
  return N;
}

std::vector<ServiceVerdict> ShardedVerifyService::drain() {
  Stopwatch Timer;
  std::vector<ServiceVerdict> Combined;
  if (pending() == 0)
    return Combined;
  ++Drains;

  std::vector<std::vector<ServiceVerdict>> PerShard(Shards.size());
  if (Pool) {
    for (size_t S = 0; S != Shards.size(); ++S)
      Pool->submit([this, &PerShard, S] { PerShard[S] = Shards[S]->drain(); });
    Pool->wait();
  } else {
    for (size_t S = 0; S != Shards.size(); ++S)
      PerShard[S] = Shards[S]->drain();
  }

  for (std::vector<ServiceVerdict> &Group : PerShard)
    for (ServiceVerdict &V : Group) {
      VerdictLog.push_back(V);
      Combined.push_back(std::move(V));
    }
  ServeMillis += Timer.millis();
  return Combined;
}

ShardedServiceStats ShardedVerifyService::stats() const {
  ShardedServiceStats S;
  S.Requests = VerdictLog.size();
  S.Drains = Drains;
  S.ServeMillis = ServeMillis;
  S.PlanMillis = PlanMillis;
  for (size_t I = 0; I != Shards.size(); ++I) {
    ShardStats SS;
    SS.Stats = Shards[I]->stats();
    SS.WarmupMillis = WarmupMillis[I];
    S.Shards.push_back(std::move(SS));
  }
  return S;
}

void ShardedVerifyService::resetPeakStats() {
  for (const auto &S : Shards)
    S->resetPeakStats();
}

proof::CertifySummary ShardedVerifyService::finishCertification() {
  proof::CertifySummary Out;
  for (const auto &S : Shards)
    Out.fold(S->finishCertification());
  return Out;
}

json::Value ShardedVerifyService::snapshot() const {
  json::Value Families = json::Value::array();
  for (const Family *F : Fams)
    Families.push(json::Value::string(F->Name));
  json::Value ShardRows = json::Value::array();
  for (const auto &S : Shards) {
    ServiceStats St = S->stats();
    json::Value Row = json::Value::object();
    Row.set("drains", counter(St.Drains));
    Row.set("pair_groups", counter(St.PairGroups));
    ShardRows.push(std::move(Row));
  }
  json::Value Log = json::Value::array();
  for (const ServiceVerdict &SV : VerdictLog)
    Log.push(verdictRow(SV));

  json::Value V = json::Value::object();
  V.set("schema", json::Value::integer(4));
  V.set("config", configImage(Cfg));
  V.set("families", std::move(Families));
  V.set("drains", counter(Drains));
  V.set("serve_millis", json::Value::number(ServeMillis));
  V.set("shard_counters", std::move(ShardRows));
  V.set("log", std::move(Log));
  return V;
}

bool ShardedVerifyService::restore(const json::Value &V,
                                   std::string &Error) {
  if (!VerdictLog.empty() || pending() != 0) {
    Error = "restore requires a fresh service (no served or pending "
            "requests)";
    return false;
  }
  // The fresh service's own image is the layout template. Everything is
  // validated into locals first: a rejected snapshot leaves the service
  // fresh.
  const json::Value Fresh = snapshot();
  if (V["schema"] != Fresh["schema"]) {
    Error = "snapshot field 'schema' is not " + Fresh["schema"].dump() +
            " (unsupported snapshot schema)";
    return false;
  }
  if (!sameLayout(V, Fresh, "", Error) ||
      !sameLayout(V["config"], Fresh["config"], "config", Error))
    return false;
  for (const auto &[Key, Live] : Fresh["config"].members())
    if (V["config"][Key] != Live) {
      Error = "snapshot config field '" + Key + "' is " +
              V["config"][Key].dump() + " but the live service has " +
              Live.dump();
      return false;
    }
  if (V["families"] != Fresh["families"]) {
    Error = "snapshot field 'families' does not match the service's "
            "family set";
    return false;
  }

  // The log, resolved and routed: the routing rebuilds each shard's
  // request count.
  std::vector<ServiceVerdict> Restored;
  std::vector<uint64_t> Routed(Shards.size(), 0);
  const json::Value RowLayout = verdictRow(ServiceVerdict());
  const json::Value &Log = V["log"];
  for (size_t I = 0; I != Log.size(); ++I) {
    std::string Where = "log[" + std::to_string(I) + "]";
    const json::Value &Row = Log.at(I);
    if (!sameLayout(Row, RowLayout, Where, Error))
      return false;
    ServiceVerdict SV{{Row["family"].asString(), Row["op1"].asString(),
                       Row["op2"].asString()},
                      Row["sound"].asBool(),
                      Row["complete"].asBool()};
    bool KnownKind = false;
    for (ConditionKind K : {ConditionKind::Before, ConditionKind::Between,
                            ConditionKind::After})
      if (Row["kind"].asString() == conditionKindName(K)) {
        SV.Req.Kind = K;
        KnownKind = true;
      }
    if (!KnownKind) {
      Error = "snapshot field '" + Where + ".kind' is not before, between "
              "or after";
      return false;
    }
    ResolvedRequest RR;
    if (!resolve(SV.Req, RR, Error)) {
      Error = "snapshot field '" + Where + "': " + Error;
      return false;
    }
    ++Routed[shardOf(SV.Req)];
    Restored.push_back(std::move(SV));
  }

  const json::Value &ShardRows = V["shard_counters"];
  if (ShardRows.size() != Shards.size()) {
    Error = "snapshot field 'shard_counters' does not hold one row per "
            "shard";
    return false;
  }
  for (size_t S = 0; S != Shards.size(); ++S) {
    std::string Where = "shard_counters[" + std::to_string(S) + "]";
    if (!sameLayout(ShardRows.at(S), Fresh["shard_counters"].at(0), Where,
                    Error))
      return false;
    // Every served request belongs to exactly one pair group.
    if (ShardRows.at(S)["pair_groups"].asInt() >
        static_cast<int64_t>(Routed[S])) {
      Error = "snapshot field '" + Where + ".pair_groups' exceeds the " +
              std::to_string(Routed[S]) + " requests the log routes to "
              "the shard";
      return false;
    }
  }

  for (size_t S = 0; S != Shards.size(); ++S)
    Shards[S]->restoreCounters(
        Routed[S],
        static_cast<uint64_t>(ShardRows.at(S)["drains"].asInt()),
        static_cast<uint64_t>(ShardRows.at(S)["pair_groups"].asInt()));
  VerdictLog = std::move(Restored);
  Drains = static_cast<uint64_t>(V["drains"].asInt());
  ServeMillis = V["serve_millis"].asDouble();
  Error.clear();
  return true;
}
