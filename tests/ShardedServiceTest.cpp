//===- tests/ShardedServiceTest.cpp - Sharded verification service tests ----===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
//
// The sharded serving front-end. The load-bearing property: every shard
// encodes the same catalog-common prefix, the verdict log is invariant
// across thread counts, verdict values are the same at every shard count,
// and the snapshot round-trips with per-shard counts rebuilt from the log.
//
//===----------------------------------------------------------------------===//

#include "service/ShardedVerifyService.h"

#include "DriverCore.h"

#include <gtest/gtest.h>

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

/// The serve_millis-free text of a snapshot (the one timing field).
std::string untimed(json::Value Snap) {
  Snap.set("serve_millis", json::Value::number(0));
  return Snap.dump();
}

// The sharded front-end at 1 worker thread and at 8 worker threads must
// produce elementwise-identical verdict logs (the determinism contract)
// and verdict values equal to a one-shard reference — over a randomized
// stream with randomized drain points. Every shard encodes its own
// prefix, and encoding is run-invariant: each freshly built shard holds
// the one-shard reference's clauses, atoms and bridges. At either shard
// count the snapshot round-trips, and the restored per-shard request
// counts (rebuilt by routing the restored log) equal the served ones.
TEST(ShardedServiceTest, VerdictsInvariantAcrossThreadCounts) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator", "Set"});
  std::vector<ServiceRequest> Universe = allRequests(C, Fams);

  for (unsigned NumShards : {4u, 1u}) {
    SCOPED_TRACE("shards=" + std::to_string(NumShards));
    ShardedServiceConfig One;
    One.Shards = NumShards;
    One.Threads = 1;
    ShardedServiceConfig Eight = One;
    Eight.Threads = 8;

    ShardedVerifyService A(C, Fams, One);
    ShardedVerifyService B(C, Fams, Eight);
    ShardedServiceConfig RefCfg = One;
    RefCfg.Shards = 1;
    ShardedVerifyService Ref(C, Fams, RefCfg);

    const SmtSession &RefSess = Ref.shard(0).session();
    ASSERT_GT(RefSess.retainedClauses(), 0u);
    for (ShardedVerifyService *Svc : {&A, &B})
      for (unsigned S = 0; S != NumShards; ++S) {
        const SmtSession &Sess = Svc->shard(S).session();
        EXPECT_EQ(Sess.retainedClauses(), RefSess.retainedClauses())
            << "shard " << S;
        EXPECT_EQ(Sess.numAtoms(), RefSess.numAtoms()) << "shard " << S;
        EXPECT_EQ(Sess.liveBridges(), RefSess.liveBridges()) << "shard " << S;
      }

    std::mt19937 Rng(20110604);
    std::uniform_int_distribution<size_t> Pick(0, Universe.size() - 1);
    std::uniform_int_distribution<int> DrainNow(0, 8);

    std::string Error;
    for (int R = 0; R != 80; ++R) {
      const ServiceRequest &Req = Universe[Pick(Rng)];
      EXPECT_EQ(A.shardOf(Req), B.shardOf(Req));
      ASSERT_TRUE(A.submit(Req, Error)) << Error;
      ASSERT_TRUE(B.submit(Req, Error)) << Error;
      ASSERT_TRUE(Ref.submit(Req, Error)) << Error;
      if (DrainNow(Rng) == 0 || R == 79) {
        std::vector<ServiceVerdict> VA = A.drain();
        std::vector<ServiceVerdict> VB = B.drain();
        std::vector<ServiceVerdict> VR = Ref.drain();
        ASSERT_EQ(VA.size(), VB.size());
        ASSERT_EQ(VA.size(), VR.size());
        // Thread counts: elementwise-identical order and values.
        for (size_t I = 0; I != VA.size(); ++I) {
          ASSERT_EQ(keyOf(VA[I].Req), keyOf(VB[I].Req))
              << "log order divergence at request " << R;
          ASSERT_EQ(VA[I].Sound, VB[I].Sound) << keyOf(VA[I].Req);
          ASSERT_EQ(VA[I].Complete, VB[I].Complete) << keyOf(VA[I].Req);
        }
        // One-shard reference: verdict values as maps (sharded group
        // order differs from the reference's batched order).
        std::map<std::string, std::pair<bool, bool>> MA, MR;
        for (const ServiceVerdict &V : VA)
          MA[keyOf(V.Req)] = {V.Sound, V.Complete};
        for (const ServiceVerdict &V : VR)
          MR[keyOf(V.Req)] = {V.Sound, V.Complete};
        ASSERT_EQ(MA, MR) << "verdict divergence at request " << R;
      }
    }

    ShardedServiceStats SA = A.stats(), SB = B.stats();
    EXPECT_EQ(SA.Requests, SB.Requests);
    EXPECT_EQ(SA.Drains, SB.Drains);
    for (size_t S = 0; S != NumShards; ++S) {
      EXPECT_EQ(SA.Shards[S].Stats.Requests, SB.Shards[S].Stats.Requests);
      EXPECT_EQ(SA.Shards[S].ClausesAdopted, 0u);
      // Every shard's solver survives its drains.
      EXPECT_TRUE(B.shard(S).session().solver().reasonInvariantHolds());
    }

    json::Value Image = A.snapshot();
    std::optional<json::Value> Parsed = json::Value::parse(Image.dump(2));
    ASSERT_TRUE(Parsed.has_value());
    ShardedVerifyService Fresh(C, Fams, Eight);
    ASSERT_TRUE(Fresh.restore(*Parsed, Error)) << Error;
    EXPECT_EQ(untimed(Fresh.snapshot()), untimed(Image));
    ShardedServiceStats SF = Fresh.stats();
    EXPECT_EQ(SF.Requests, SA.Requests);
    for (size_t S = 0; S != NumShards; ++S)
      EXPECT_EQ(SF.Shards[S].Stats.Requests, SA.Shards[S].Stats.Requests)
          << "shard " << S;
  }
}

// Each shard keeps its own plan table. Pair routing sends every request
// of a pair to one shard, so the per-shard plan counts partition the
// distinct pairs served: their sum is that count, with no pair planned
// on two shards.
TEST(ShardedServiceTest, PlanTablesPartitionServedPairs) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator", "Set"});
  std::vector<ServiceRequest> Universe = allRequests(C, Fams);

  ShardedServiceConfig Cfg;
  Cfg.Shards = 4;
  Cfg.Threads = 4;
  ShardedVerifyService Svc(C, Fams, Cfg);

  std::vector<std::set<std::string>> PairsOf(Cfg.Shards);
  std::set<std::string> Distinct;
  std::mt19937 Rng(4242);
  std::uniform_int_distribution<size_t> Pick(0, Universe.size() - 1);
  std::string Error;
  for (int R = 0; R != 200; ++R) {
    const ServiceRequest &Req = Universe[Pick(Rng)];
    std::string Pair = Req.Family + "|" + Req.Op1 + "," + Req.Op2;
    PairsOf[Svc.shardOf(Req)].insert(Pair);
    Distinct.insert(Pair);
    ASSERT_TRUE(Svc.submit(Req, Error)) << Error;
    if (R % 32 != 31 && R != 199)
      continue;
    for (const ServiceVerdict &V : Svc.drain())
      EXPECT_TRUE(V.verified()) << keyOf(V.Req);
  }

  ShardedServiceStats S = Svc.stats();
  uint64_t Planned = 0, Groups = 0;
  for (size_t Sh = 0; Sh != Cfg.Shards; ++Sh) {
    EXPECT_EQ(S.Shards[Sh].Stats.PlansBuilt, PairsOf[Sh].size())
        << "shard " << Sh;
    Planned += S.Shards[Sh].Stats.PlansBuilt;
    Groups += S.Shards[Sh].Stats.PairGroups;
  }
  EXPECT_EQ(Planned, Distinct.size());
  EXPECT_LT(Planned, Groups) << "no pair was served in two drains";
}

// The sharded snapshot round-trips through its textual form, restores
// the log and counters, and a front-end whose shard count or routing
// differs refuses the image with an error naming the field.
TEST(ShardedServiceTest, SnapshotRoundTripAndConfigMismatch) {
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
  for (const ServiceVerdict &V : Svc.drain())
    EXPECT_TRUE(V.verified()) << keyOf(V.Req);

  json::Value Image = Svc.snapshot();
  std::optional<json::Value> Parsed = json::Value::parse(Image.dump(2));
  ASSERT_TRUE(Parsed.has_value());

  ShardedVerifyService Fresh(C, Fams, Cfg);
  ASSERT_TRUE(Fresh.restore(*Parsed, Error)) << Error;
  ASSERT_EQ(Fresh.log().size(), Svc.log().size());
  for (size_t I = 0; I != Fresh.log().size(); ++I) {
    EXPECT_EQ(keyOf(Fresh.log()[I].Req), keyOf(Svc.log()[I].Req));
    EXPECT_EQ(Fresh.log()[I].Sound, Svc.log()[I].Sound);
    EXPECT_EQ(Fresh.log()[I].Complete, Svc.log()[I].Complete);
  }
  // Per-shard request counts are not stored: routing the restored log
  // rebuilds them, so they always sum to the front-end's count.
  ShardedServiceStats Before = Svc.stats(), After = Fresh.stats();
  EXPECT_EQ(After.Requests, Before.Requests);
  uint64_t Sum = 0;
  for (size_t S = 0; S != Cfg.Shards; ++S) {
    EXPECT_EQ(After.Shards[S].Stats.Requests, Before.Shards[S].Stats.Requests);
    EXPECT_EQ(After.Shards[S].Stats.PairGroups,
              Before.Shards[S].Stats.PairGroups);
    EXPECT_EQ(After.Shards[S].Stats.Drains, Before.Shards[S].Stats.Drains);
    Sum += After.Shards[S].Stats.Requests;
  }
  EXPECT_EQ(Sum, After.Requests);

  // The restored front-end keeps serving with the same verdicts.
  ASSERT_TRUE(Fresh.submit(Pass.front(), Error)) << Error;
  std::vector<ServiceVerdict> More = Fresh.drain();
  ASSERT_EQ(More.size(), 1u);
  EXPECT_TRUE(More.front().verified());

  ShardedServiceConfig FewerShards = Cfg;
  FewerShards.Shards = 3;
  ShardedVerifyService Mismatched(C, Fams, FewerShards);
  EXPECT_FALSE(Mismatched.restore(*Parsed, Error));
  EXPECT_NE(Error.find("shards"), std::string::npos) << Error;

  ShardedServiceConfig OtherRoute = Cfg;
  OtherRoute.Route = RouteBy::Family;
  ShardedVerifyService Rerouted(C, Fams, OtherRoute);
  EXPECT_FALSE(Rerouted.restore(*Parsed, Error));
  EXPECT_NE(Error.find("route"), std::string::npos) << Error;
}

// Certify mode works shard-locally: every shard logs its own DRAT trace
// from its first assertion, and the folded summary accepts.
TEST(ShardedServiceTest, PerShardCertificationStillPasses) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator"});

  ShardedServiceConfig Cfg;
  Cfg.Base.Certify = true;
  Cfg.Shards = 2;
  ShardedVerifyService Svc(C, Fams, Cfg);
  ASSERT_TRUE(Svc.certifying());

  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;
  for (int P = 0; P != 2; ++P) {
    for (const ServiceRequest &R : Pass)
      ASSERT_TRUE(Svc.submit(R, Error)) << Error;
    for (const ServiceVerdict &V : Svc.drain())
      EXPECT_TRUE(V.verified()) << keyOf(V.Req);
  }

  proof::CertifySummary Cert = Svc.finishCertification();
  EXPECT_TRUE(Cert.Checked);
  EXPECT_TRUE(Cert.Ok) << Cert.Error;
  EXPECT_GT(Cert.Queries, 0u);
  EXPECT_EQ(Cert.Queries, Cert.QueriesPassed);
}

} // namespace
