//===- tests/ServiceTest.cpp - Warm verification service tests --------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
//
// The verification service over one warm shard (what semcommute-serve
// runs by default): request resolution, prefix-batched drains, scope
// retirement and selector release keeping the session bounded across
// passes, snapshot/reload and its validation, and — the load-bearing
// property — verdict equality between the warm service and a fresh,
// independent session per request under randomized request/retire
// orders.
//
//===----------------------------------------------------------------------===//

#include "service/ShardedVerifyService.h"

#include "DriverCore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <set>

using namespace semcomm;
using namespace semcomm::service;

namespace {

std::vector<const Family *> families(std::vector<std::string> Names) {
  std::string Error;
  std::vector<const Family *> Fams = driver::resolveFamilies(Names, Error);
  EXPECT_TRUE(Error.empty()) << Error;
  return Fams;
}

/// Every (entry, kind) request of the served families, catalog order.
std::vector<ServiceRequest>
allRequests(const Catalog &C, const std::vector<const Family *> &Fams) {
  std::vector<ServiceRequest> Reqs;
  for (const Family *Fam : Fams)
    for (const ConditionEntry &E : C.entries(*Fam))
      for (ConditionKind K : {ConditionKind::Before, ConditionKind::Between,
                              ConditionKind::After})
        Reqs.push_back({Fam->Name, E.op1().Name, E.op2().Name, K});
  return Reqs;
}

std::string keyOf(const ServiceRequest &R) {
  return R.Family + "|" + R.Op1 + "," + R.Op2 + "|" +
         std::string(conditionKindName(R.Kind));
}

/// A one-shard service over \p Base.
ShardedServiceConfig oneShard(const ServiceConfig &Base = ServiceConfig()) {
  ShardedServiceConfig Cfg;
  Cfg.Base = Base;
  Cfg.Shards = 1;
  return Cfg;
}

ServiceStats shardStats(const ShardedVerifyService &Svc) {
  return Svc.stats().Shards[0].Stats;
}

/// A snapshot with its one timing field zeroed.
json::Value untimed(json::Value Snap) {
  if (Snap.isObject() && Snap.find("serve_millis"))
    Snap.set("serve_millis", json::Value::number(0));
  return Snap;
}

/// A copy of object \p Obj with member \p Key set to \p V, or dropped
/// when \p V is empty.
json::Value edited(const json::Value &Obj, const std::string &Key,
                   std::optional<json::Value> V) {
  json::Value Out = json::Value::object();
  for (const auto &[K, Member] : Obj.members())
    if (K != Key)
      Out.set(K, Member);
    else if (V)
      Out.set(K, *V);
  return Out;
}

/// \p Image with log row 0 replaced by \p Row.
json::Value withFirstRow(const json::Value &Image, json::Value Row) {
  json::Value Log = json::Value::array();
  Log.push(std::move(Row));
  for (size_t I = 1; I < Image["log"].size(); ++I)
    Log.push(Image["log"].at(I));
  return edited(Image, "log", Log);
}

/// A service that never served: no log, no counters.
void expectFresh(const ShardedVerifyService &Svc) {
  EXPECT_TRUE(Svc.log().empty());
  EXPECT_EQ(Svc.pending(), 0u);
  ShardedServiceStats S = Svc.stats();
  EXPECT_EQ(S.Drains, 0u);
  for (const ShardStats &Sh : S.Shards) {
    EXPECT_EQ(Sh.Stats.Requests, 0u);
    EXPECT_EQ(Sh.Stats.Drains, 0u);
    EXPECT_EQ(Sh.Stats.PairGroups, 0u);
  }
}

/// splitmix64: the mutation fuzzer's deterministic generator.
struct SplitMix64 {
  uint64_t State;
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  size_t below(size_t N) { return N ? static_cast<size_t>(next() % N) : 0; }
};

TEST(ServiceTest, SubmitValidatesFamilyAndPair) {
  ExprFactory F;
  Catalog C(F);
  ServiceConfig Cfg;
  ShardedVerifyService Svc(C, families({"Accumulator"}), oneShard(Cfg));

  std::string Error;
  EXPECT_FALSE(Svc.submit({"Set", "add", "add", ConditionKind::Before},
                          Error));
  EXPECT_NE(Error.find("not served"), std::string::npos) << Error;
  EXPECT_FALSE(Svc.submit(
      {"Accumulator", "increase", "nonesuch", ConditionKind::Before},
      Error));
  EXPECT_NE(Error.find("no catalog entry"), std::string::npos) << Error;
  EXPECT_TRUE(Svc.submit(
      {"Accumulator", "increase", "read", ConditionKind::After}, Error));
  EXPECT_EQ(Svc.pending(), 1u);
}

TEST(ServiceTest, BatchingGroupsSamePairRequests) {
  ExprFactory F;
  Catalog C(F);
  ServiceConfig Cfg;
  ShardedVerifyService Svc(C, families({"Accumulator"}), oneShard(Cfg));

  // Three kinds of one pair, interleaved with another pair: batching must
  // serve them as two pair groups, not five scope opens.
  std::string Error;
  for (ConditionKind K : {ConditionKind::Before, ConditionKind::Between,
                          ConditionKind::After})
    ASSERT_TRUE(Svc.submit({"Accumulator", "increase", "increase", K},
                           Error))
        << Error;
  for (ConditionKind K : {ConditionKind::Before, ConditionKind::After})
    ASSERT_TRUE(
        Svc.submit({"Accumulator", "increase", "read", K}, Error))
        << Error;

  std::vector<ServiceVerdict> Verdicts = Svc.drain();
  ASSERT_EQ(Verdicts.size(), 5u);
  for (const ServiceVerdict &V : Verdicts)
    EXPECT_TRUE(V.verified()) << keyOf(V.Req);

  ServiceStats S = shardStats(Svc);
  EXPECT_EQ(S.Drains, 1u);
  EXPECT_EQ(S.PairGroups, 2u);
  EXPECT_EQ(S.BatchedReuses, 3u);
  EXPECT_EQ(S.MethodsDischarged, 10u);
  EXPECT_TRUE(Svc.shard(0).session().solver().reasonInvariantHolds());
}

// A pair's plan is built once per service lifetime: two full passes over
// the whole catalog build one plan per catalog entry, while every pass
// still opens (and retires) one pair scope per pair.
TEST(ServiceTest, PlansBuiltOncePerPair) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"all"});
  uint64_t Entries = 0;
  for (const Family *Fam : Fams)
    Entries += C.entries(*Fam).size();
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);

  ShardedVerifyService Svc(C, Fams, oneShard());
  std::string Error;
  for (int P = 0; P != 2; ++P) {
    for (const ServiceRequest &R : Pass)
      ASSERT_TRUE(Svc.submit(R, Error)) << Error;
    for (const ServiceVerdict &V : Svc.drain())
      EXPECT_TRUE(V.verified()) << keyOf(V.Req);
    EXPECT_EQ(shardStats(Svc).PlansBuilt, Entries) << "after pass " << P;
  }
  EXPECT_EQ(shardStats(Svc).PairGroups, 2 * Entries);
}

// Cached plans are as good as fresh ones: pairs served again after their
// scopes were retired reuse the table's plan, and every verdict equals a
// fresh verifyPair on a new engine — a new plan in a new session.
TEST(ServiceTest, CachedPlansMatchFreshPlans) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams =
      families({"Accumulator", "Set", "ArrayList"});

  ServiceConfig Cfg;
  ShardedVerifyService Svc(C, Fams, oneShard(Cfg));

  auto PairOf = [](const ServiceRequest &R) {
    return R.Family + "|" + R.Op1 + "," + R.Op2;
  };
  std::map<std::string, const ConditionEntry *> EntryOf;
  for (const Family *Fam : Fams)
    for (const ConditionEntry &E : C.entries(*Fam))
      EntryOf[PairOf({Fam->Name, E.op1().Name, E.op2().Name})] = &E;
  std::map<const ConditionEntry *, PairOutcome> Fresh;
  auto FreshVerdict = [&](const ServiceRequest &R) {
    const ConditionEntry *E = EntryOf.at(PairOf(R));
    auto It = Fresh.find(E);
    if (It == Fresh.end()) {
      SymbolicEngine Eng(F, Cfg.SeqLenBound, Cfg.ConflictBudget);
      It = Fresh.emplace(E, Eng.verifyPair(*E)).first;
    }
    size_t KindIdx = static_cast<size_t>(R.Kind);
    return std::make_pair(It->second.Methods[2 * KindIdx].Verified,
                          It->second.Methods[2 * KindIdx + 1].Verified);
  };

  std::vector<ServiceRequest> Universe = allRequests(C, Fams);
  std::mt19937 Rng(19830);
  std::uniform_int_distribution<size_t> Pick(0, Universe.size() - 1);
  std::uniform_int_distribution<int> DrainNow(0, 5);
  std::set<std::string> ServedBefore;
  // ArrayList requests whose pair an earlier drain served and retired.
  unsigned SeqRepeats = 0;
  std::string Error;
  for (int R = 0; R != 80; ++R) {
    ASSERT_TRUE(Svc.submit(Universe[Pick(Rng)], Error)) << Error;
    if (DrainNow(Rng) != 0 && R != 79)
      continue;
    std::vector<ServiceVerdict> Served = Svc.drain();
    for (const ServiceVerdict &V : Served) {
      EXPECT_EQ(std::make_pair(V.Sound, V.Complete), FreshVerdict(V.Req))
          << keyOf(V.Req) << " at request " << R;
      SeqRepeats += V.Req.Family == "ArrayList" &&
                    ServedBefore.count(PairOf(V.Req));
    }
    for (const ServiceVerdict &V : Served)
      ServedBefore.insert(PairOf(V.Req));
    ASSERT_TRUE(Svc.shard(0).session().solver().reasonInvariantHolds());
  }

  ServiceStats S = shardStats(Svc);
  EXPECT_EQ(S.PlansBuilt, Fresh.size());
  EXPECT_LT(S.PlansBuilt, S.PairGroups) << "no pair was served twice";
  EXPECT_GT(SeqRepeats, 0u);
}

// The load-bearing property: the warm, selector-releasing, batched
// service and an independent reference — a fresh SymbolicEngine and
// verifyPair session for every served request — reach identical verdicts
// on a randomized request stream with randomized drain points, and the
// warm session's solver invariants hold after every drain.
TEST(ServiceTest, FuzzServedVerdictsMatchFreshPairs) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator", "Set"});

  ServiceConfig Cfg;
  ShardedVerifyService Svc(C, Fams, oneShard(Cfg));
  std::map<std::string, const ConditionEntry *> EntryOf;
  for (const Family *Fam : Fams)
    for (const ConditionEntry &E : C.entries(*Fam))
      EntryOf[Fam->Name + "|" + E.op1().Name + "," + E.op2().Name] = &E;

  std::vector<ServiceRequest> Universe = allRequests(C, Fams);
  std::mt19937 Rng(20110604);
  std::uniform_int_distribution<size_t> Pick(0, Universe.size() - 1);
  std::uniform_int_distribution<int> DrainNow(0, 6);

  size_t Submitted = 0, Checked = 0;
  std::string Error;
  for (int R = 0; R != 60; ++R) {
    ASSERT_TRUE(Svc.submit(Universe[Pick(Rng)], Error)) << Error;
    ++Submitted;
    if (DrainNow(Rng) != 0 && R != 59)
      continue;
    std::vector<ServiceVerdict> Served = Svc.drain();
    ASSERT_TRUE(Svc.shard(0).session().solver().reasonInvariantHolds())
        << "after drain at request " << R;
    for (const ServiceVerdict &V : Served) {
      const ServiceRequest &Q = V.Req;
      SymbolicEngine Eng(F, Cfg.SeqLenBound, Cfg.ConflictBudget);
      PairOutcome Ref =
          Eng.verifyPair(*EntryOf.at(Q.Family + "|" + Q.Op1 + "," + Q.Op2));
      size_t KindIdx = static_cast<size_t>(Q.Kind);
      EXPECT_EQ(V.Sound, Ref.Methods[2 * KindIdx].Verified)
          << keyOf(Q) << " at request " << R;
      EXPECT_EQ(V.Complete, Ref.Methods[2 * KindIdx + 1].Verified)
          << keyOf(Q) << " at request " << R;
      EXPECT_TRUE(V.verified()) << keyOf(Q) << " failed verification";
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, Submitted);
  // The stream retires enough scopes to release selectors.
  EXPECT_GT(shardStats(Svc).Session.ReleasedSelectors, 0u);
}

// Three full catalog passes through one warm session: the per-pass
// live-vars / live-clauses / live-bridges peaks plateau (pass 3 within
// 5% of pass 2). The bridge lattice is bounded by the catalog, so pass 3
// peaks at exactly pass 1's bridges.
TEST(ServiceTest, LivePeaksPlateauAcrossPasses) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator", "Set"});

  ShardedVerifyService Svc(C, Fams, oneShard());
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);

  struct Peaks {
    uint64_t Vars, Clauses, Bridges;
  };
  std::vector<Peaks> PassPeaks;
  std::string Error;
  for (int P = 0; P != 3; ++P) {
    Svc.resetPeakStats();
    for (const ServiceRequest &R : Pass)
      ASSERT_TRUE(Svc.submit(R, Error)) << Error;
    for (const ServiceVerdict &V : Svc.drain())
      EXPECT_TRUE(V.verified()) << keyOf(V.Req);
    ASSERT_TRUE(Svc.shard(0).session().solver().reasonInvariantHolds());
    ServiceStats S = shardStats(Svc);
    PassPeaks.push_back({S.Session.PeakLiveVars, S.Session.PeakLiveClauses,
                         S.Session.PeakLiveBridges});
  }

  EXPECT_LE(static_cast<double>(PassPeaks[2].Vars),
            1.05 * static_cast<double>(PassPeaks[1].Vars));
  EXPECT_LE(static_cast<double>(PassPeaks[2].Clauses),
            1.05 * static_cast<double>(PassPeaks[1].Clauses));
  EXPECT_LE(static_cast<double>(PassPeaks[2].Bridges),
            1.05 * static_cast<double>(PassPeaks[1].Bridges));
  EXPECT_EQ(PassPeaks[2].Bridges, PassPeaks[0].Bridges);
  EXPECT_GT(shardStats(Svc).Session.ReleasedSelectors, 0u);
}

// Repeated traffic interns nothing: once a warm full catalog pass has
// planned every pair, a second full pass with one request per drain (so
// every request opens and retires its own pair scope) and 2000 more
// requests for one pair leave the shared factory's node count unchanged.
// Selectors are solver variables the session mints, not expressions.
TEST(ServiceTest, RepeatedTrafficInternsNothing) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"all"});
  ShardedVerifyService Svc(C, Fams, oneShard());
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;

  for (const ServiceRequest &R : Pass)
    ASSERT_TRUE(Svc.submit(R, Error)) << Error;
  for (const ServiceVerdict &V : Svc.drain())
    EXPECT_TRUE(V.verified()) << keyOf(V.Req);
  size_t Warm = F.numNodes();
  uint64_t Groups = shardStats(Svc).PairGroups;

  for (const ServiceRequest &R : Pass) {
    ASSERT_TRUE(Svc.submit(R, Error)) << Error;
    for (const ServiceVerdict &V : Svc.drain())
      EXPECT_TRUE(V.verified()) << keyOf(V.Req);
  }
  EXPECT_EQ(F.numNodes(), Warm) << "second pass interned nodes";

  for (int I = 0; I != 2000; ++I) {
    ASSERT_TRUE(Svc.submit(Pass[I % 3], Error)) << Error;
    Svc.drain();
  }
  EXPECT_EQ(F.numNodes(), Warm) << "one-pair traffic interned nodes";
  // Every request of both steps opened its own pair scope.
  EXPECT_EQ(shardStats(Svc).PairGroups, Groups + Pass.size() + 2000);
}

TEST(ServiceTest, SnapshotRoundTripsAndResumesServing) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator"});
  ServiceConfig Cfg;

  ShardedVerifyService Svc(C, Fams, oneShard(Cfg));
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;
  for (const ServiceRequest &R : Pass)
    ASSERT_TRUE(Svc.submit(R, Error)) << Error;
  Svc.drain();
  json::Value Image = Svc.snapshot();

  // The image round-trips through its textual form.
  std::optional<json::Value> Parsed = json::Value::parse(Image.dump(2));
  ASSERT_TRUE(Parsed.has_value());

  ShardedVerifyService Fresh(C, Fams, oneShard(Cfg));
  ASSERT_TRUE(Fresh.restore(*Parsed, Error)) << Error;
  ASSERT_EQ(Fresh.log().size(), Svc.log().size());
  for (size_t I = 0; I != Fresh.log().size(); ++I) {
    EXPECT_EQ(keyOf(Fresh.log()[I].Req), keyOf(Svc.log()[I].Req));
    EXPECT_EQ(Fresh.log()[I].Sound, Svc.log()[I].Sound);
    EXPECT_EQ(Fresh.log()[I].Complete, Svc.log()[I].Complete);
  }
  EXPECT_EQ(Fresh.stats().Requests, Svc.stats().Requests);
  EXPECT_EQ(Fresh.stats().Drains, Svc.stats().Drains);
  EXPECT_EQ(shardStats(Fresh).Requests, shardStats(Svc).Requests);
  EXPECT_EQ(shardStats(Fresh).PairGroups, shardStats(Svc).PairGroups);
  EXPECT_EQ(shardStats(Fresh).BatchedReuses, shardStats(Svc).BatchedReuses);
  EXPECT_EQ(untimed(Fresh.snapshot()).dump(), untimed(Image).dump());
  // The plan table is not part of the image: it refills lazily.
  EXPECT_EQ(shardStats(Fresh).PlansBuilt, 0u);

  // The restored service re-warms and keeps serving with the same
  // verdicts the original produced.
  ASSERT_TRUE(Fresh.submit(Pass.front(), Error)) << Error;
  std::vector<ServiceVerdict> More = Fresh.drain();
  ASSERT_EQ(More.size(), 1u);
  EXPECT_TRUE(More.front().verified());
  EXPECT_EQ(shardStats(Fresh).PlansBuilt, 1u);

  // Restoring into a service that has already served is rejected.
  EXPECT_FALSE(Fresh.restore(*Parsed, Error));
  // A mismatched family set is rejected.
  ShardedVerifyService Other(C, families({"Set"}), oneShard(Cfg));
  EXPECT_FALSE(Other.restore(*Parsed, Error));
  EXPECT_NE(Error.find("family set"), std::string::npos) << Error;
}

// restore() checks every config field snapshot() writes: a snapshot
// whose config differs in any one field is rejected with an error naming
// that field, and the service stays fresh.
TEST(ServiceTest, RestoreChecksEveryConfigField) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator"});
  ShardedVerifyService Svc(C, Fams, oneShard());
  std::string Error;
  for (const ServiceRequest &R : allRequests(C, Fams))
    ASSERT_TRUE(Svc.submit(R, Error)) << Error;
  Svc.drain();
  json::Value Image = Svc.snapshot();

  // One differing value per field, of the field's own type.
  const std::vector<std::pair<std::string, json::Value>> Mismatches = {
      {"certify", json::Value::boolean(true)},
      {"seq_len_bound", json::Value::integer(2)},
      {"conflict_budget", json::Value::integer(1000)},
      {"shards", json::Value::integer(2)},
      {"route", json::Value::string("family")},
  };
  ASSERT_EQ(Mismatches.size(), Image["config"].members().size());
  ShardedVerifyService Fresh(C, Fams, oneShard());
  for (const auto &[Key, Other] : Mismatches) {
    SCOPED_TRACE(Key);
    ASSERT_NE(Image["config"][Key], Other);
    json::Value Bad =
        edited(Image, "config", edited(Image["config"], Key, Other));
    EXPECT_FALSE(Fresh.restore(Bad, Error));
    EXPECT_NE(Error.find("'" + Key + "'"), std::string::npos) << Error;
    expectFresh(Fresh);
  }
  EXPECT_TRUE(Fresh.restore(Image, Error)) << Error;
}

// Mistyped, out-of-range or unresolvable snapshot fields are rejected
// with an error naming the field, never defaulted; a rejected restore
// leaves the service fresh, able to restore a valid image and serve.
TEST(ServiceTest, RestoreRejectsMistypedFields) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator"});
  ShardedVerifyService Svc(C, Fams, oneShard());
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;
  for (const ServiceRequest &R : Pass)
    ASSERT_TRUE(Svc.submit(R, Error)) << Error;
  Svc.drain();
  json::Value Image = Svc.snapshot();
  const json::Value &Row = Image["log"].at(0);
  json::Value Counters = json::Value::array();
  Counters.push(edited(Image["shard_counters"].at(0), "pair_groups",
                       json::Value::integer(
                           static_cast<int64_t>(Pass.size()) + 1)));
  // A schema-3 image: the config still carries the deleted batch,
  // compaction and release fields. It is rejected as a whole, naming the
  // schema rather than its first stale field.
  json::Value OldConfig = json::Value::object();
  OldConfig.set("batch", json::Value::boolean(true));
  OldConfig.set("compact_bridges", json::Value::boolean(true));
  OldConfig.set("release_selectors", json::Value::boolean(true));
  for (const auto &[Key, V] : Image["config"].members()) {
    if (Key == "shards")
      OldConfig.set("compact_min_dead", json::Value::integer(64));
    OldConfig.set(Key, V);
  }
  json::Value Schema3 = edited(edited(Image, "config", OldConfig), "schema",
                               json::Value::integer(3));

  const std::vector<std::pair<json::Value, std::string>> Cases = {
      {withFirstRow(Image, edited(Row, "family", json::Value::integer(5))),
       "'log[0].family' has the wrong type"},
      {edited(Image, "drains", json::Value::integer(-1)),
       "'drains' is negative"},
      // One more drain would wrap it negative in the next snapshot.
      {edited(Image, "drains", json::Value::integer(INT64_MAX)),
       "'drains' is above 2^53"},
      {withFirstRow(Image, edited(Row, "sound", std::nullopt)),
       "'log[0].sound' is missing"},
      {withFirstRow(Image, edited(Row, "family", json::Value::string("Set"))),
       "family 'Set' is not served"},
      {withFirstRow(Image,
                    edited(Row, "op2", json::Value::string("nonesuch"))),
       "no catalog entry"},
      {withFirstRow(Image, edited(Row, "kind", json::Value::string("never"))),
       "'log[0].kind'"},
      {edited(Image, "config",
              edited(Image["config"], "seq_len_bound",
                     json::Value::string("3"))),
       "'config.seq_len_bound' has the wrong type"},
      {edited(Image, "serve_millis", json::Value::number(-1)),
       "'serve_millis'"},
      {edited(Image, "shard_counters", Counters),
       "'shard_counters[0].pair_groups'"},
      {edited(Image, "schema", json::Value::integer(2)), "'schema'"},
      {Schema3, "'schema' is not 4"},
  };
  ShardedVerifyService Fresh(C, Fams, oneShard());
  for (const auto &[Bad, Want] : Cases) {
    SCOPED_TRACE(Want);
    EXPECT_FALSE(Fresh.restore(Bad, Error));
    EXPECT_NE(Error.find(Want), std::string::npos) << Error;
    EXPECT_EQ(Error.find('\n'), std::string::npos) << Error;
    expectFresh(Fresh);
  }
  // Literals that do not fit fail the parse, so a reload rejects them
  // before restore() could read a saturated counter (which one more pass
  // would wrap negative in the next snapshot).
  for (const auto &[Key, Literal] :
       {std::pair{"drains", "99999999999999999999"},
        std::pair{"serve_millis", "1e400"}}) {
    SCOPED_TRACE(Key);
    std::string Text = edited(Image, Key, json::Value::string("@")).dump(2);
    size_t At = Text.find("\"@\"");
    ASSERT_NE(At, std::string::npos);
    Text.replace(At, 3, Literal);
    EXPECT_FALSE(json::Value::parse(Text).has_value());
  }

  json::Value Extra = Image;
  Extra.set("extra", json::Value::integer(1));
  EXPECT_FALSE(Fresh.restore(Extra, Error));
  EXPECT_NE(Error.find("'extra' is unknown"), std::string::npos) << Error;
  expectFresh(Fresh);

  ASSERT_TRUE(Fresh.restore(Image, Error)) << Error;
  ASSERT_TRUE(Fresh.submit(Pass.front(), Error)) << Error;
  std::vector<ServiceVerdict> More = Fresh.drain();
  ASSERT_EQ(More.size(), 1u);
  EXPECT_TRUE(More.front().verified());
  EXPECT_EQ(Fresh.stats().Requests, Pass.size() + 1);
}

// Deterministic mutation fuzzing of the snapshot text: splitmix64-seeded
// byte flips, truncations and splices of two valid images. Every mutant
// either fails to parse, is rejected with a non-empty error (leaving the
// service fresh), or restores and re-snapshots to exactly the parsed
// mutant (serve_millis aside).
TEST(ServiceTest, SnapshotMutantsRejectOrRoundTrip) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator"});
  ShardedServiceConfig Cfg;
  Cfg.Shards = 2;
  ShardedVerifyService Svc(C, Fams, Cfg);
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;
  for (const ServiceRequest &R : Pass)
    ASSERT_TRUE(Svc.submit(R, Error)) << Error;
  Svc.drain();
  // The seeds' one timing field is zeroed, so the mutants are the same
  // on every run.
  const std::string First = untimed(Svc.snapshot()).dump(2);
  for (size_t I = 0; I != 3; ++I)
    ASSERT_TRUE(Svc.submit(Pass[I], Error)) << Error;
  Svc.drain();
  const std::string Seeds[2] = {First, untimed(Svc.snapshot()).dump(2)};

  const std::string Bytes = "0123456789-.eE\"{}[],: tfnlu\\";
  SplitMix64 Rng{0x5eed5ull};
  // The bounds of the line of \p S around offset \p At, newline included
  // (the seeds are indented dumps: one member or element per line).
  auto LineOf = [](const std::string &S, size_t At) {
    size_t Begin = At == 0 ? std::string::npos : S.rfind('\n', At - 1);
    size_t End = S.find('\n', At);
    return std::make_pair(Begin == std::string::npos ? 0 : Begin + 1,
                          End == std::string::npos ? S.size() : End + 1);
  };
  auto Mutate = [&](std::string T) {
    for (size_t Ops = 1 + Rng.below(3); Ops != 0; --Ops) {
      size_t At = Rng.below(T.size() + 1);
      const std::string &Other = Seeds[Rng.below(2)];
      switch (Rng.below(8)) {
      case 0: // Bit flip.
        if (At < T.size())
          T[At] = static_cast<char>(T[At] ^ (1u << Rng.below(8)));
        break;
      case 1: // Byte replacement from the JSON alphabet.
        if (At < T.size())
          T[At] = Bytes[Rng.below(Bytes.size())];
        break;
      case 2: // Truncation.
        T.resize(At);
        break;
      case 3: // Deletion of a short range.
        T.erase(At, Rng.below(16));
        break;
      case 4: { // Splice: this prefix, the other seed's suffix from a
                // nearby offset.
        size_t From = std::min(Other.size(), At + Rng.below(9));
        From = From >= 4 ? From - 4 : 0;
        T = T.substr(0, At) + Other.substr(From);
        break;
      }
      case 5: { // Line move: reorders members and elements.
        auto [Begin, End] = LineOf(T, At);
        std::string Line = T.substr(Begin, End - Begin);
        T.erase(Begin, End - Begin);
        T.insert(LineOf(T, Rng.below(T.size() + 1)).first, Line);
        break;
      }
      case 6: { // Line splice: a whole line of the other seed.
        auto [Begin, End] = LineOf(Other, Rng.below(Other.size()));
        T.insert(LineOf(T, At).first, Other.substr(Begin, End - Begin));
        break;
      }
      default: // Insertion of a chunk of the other seed.
        T.insert(At, Other.substr(Rng.below(Other.size()), Rng.below(48)));
        break;
      }
    }
    return T;
  };

  unsigned Unparsable = 0, Rejected = 0, RoundTripped = 0;
  auto Target = std::make_unique<ShardedVerifyService>(C, Fams, Cfg);
  for (unsigned N = 0; N != 4000; ++N) {
    std::string Text = Mutate(Seeds[N % 2]);
    std::optional<json::Value> Parsed = json::Value::parse(Text);
    if (!Parsed) {
      ++Unparsable;
      continue;
    }
    Error.clear();
    if (!Target->restore(*Parsed, Error)) {
      ++Rejected;
      ASSERT_FALSE(Error.empty()) << "mutant " << N << ": " << Text;
      ASSERT_TRUE(Target->log().empty() && Target->stats().Drains == 0)
          << "mutant " << N << " left the service dirty";
      continue;
    }
    ++RoundTripped;
    ASSERT_EQ(untimed(Target->snapshot()).dump(), untimed(*Parsed).dump())
        << "mutant " << N << " did not round-trip: " << Text;
    Target = std::make_unique<ShardedVerifyService>(C, Fams, Cfg);
  }
  EXPECT_GT(Unparsable, 0u);
  EXPECT_GT(Rejected, 0u);
  EXPECT_GT(RoundTripped, 0u);
  std::printf("snapshot mutants: %u unparsable, %u rejected, %u "
              "round-tripped\n",
              Unparsable, Rejected, RoundTripped);
}

} // namespace
