//===- service/VerifyService.h - Warm catalog verification service -*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-lived verification service over one warm CatalogSession. Clients
/// submit (family, op-pair, condition-kind) requests; drain() serves every
/// pending request against the warm session and returns the verdicts
/// (soundness + completeness — the condition kind's two testing methods).
///
/// Serving discipline:
///
///  * Plan table: a pair's six method plans are a pure function of its
///    catalog entry, the sequence bound and the hints, and their ExprRefs
///    live in the catalog's factory. Each service therefore builds a
///    pair's plan once per lifetime, the first time the pair is served,
///    and every later drain (batched or FIFO) reads it from the table.
///    The table is bounded by the catalog's pairs.
///
///  * Prefix batching (the default): pending requests are grouped by
///    family, then by op-pair, in first-appearance order. A pair's scope
///    is opened once per group, every request of the group discharged
///    against the warm pair scope, and the scope retired when the group
///    completes — so N same-pair requests pay one scope open/retire
///    instead of N. The FIFO baseline (Batch = false) serves arrival
///    order, re-opening and retiring the pair scope per request; the
///    requests/sec delta between the two is the number the bench harness
///    reports.
///
///  * Long-horizon compaction: with CompactBridges (the default) the
///    session reference-counts theory atoms by the scopes that mention
///    them and compacts dead bridges out of the clause database; with
///    ReleaseSelectors retired scopes' epoch-interned selector variables
///    are folded off the trail and recycled. Together they make the
///    service loop unbounded: live clauses, live variables, and live
///    bridges plateau after the first full catalog pass instead of
///    growing with the request count.
///
///  * Snapshot / reload: snapshot() serializes the service image (config,
///    cumulative statistics, the verdict log) to JSON; restore() loads it
///    into a freshly constructed service. The warm solver state itself is
///    deliberately not serialized — it is a deterministic function of the
///    catalog, so a reloaded service re-warms lazily as requests arrive
///    while its counters and log continue from the snapshot.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_SERVICE_VERIFYSERVICE_H
#define SEMCOMM_SERVICE_VERIFYSERVICE_H

#include "commute/SymbolicEngine.h"
#include "support/Json.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace semcomm {
namespace service {

/// One verification request: decide the \p Kind commutativity condition of
/// the ordered pair (\p Op1, \p Op2) in \p Family.
struct ServiceRequest {
  std::string Family;
  std::string Op1, Op2;
  ConditionKind Kind = ConditionKind::Before;
};

/// The served outcome of one request: the verdicts of the condition's two
/// testing methods.
struct ServiceVerdict {
  ServiceRequest Req;
  bool Sound = false;
  bool Complete = false;
  bool verified() const { return Sound && Complete; }
};

/// Service construction knobs.
struct ServiceConfig {
  bool Batch = true;            ///< Prefix-batched drains (vs. FIFO).
  bool CompactBridges = true;   ///< Bridge compaction on the warm session.
  bool ReleaseSelectors = true; ///< Fold retired selectors off the trail.
  bool Certify = false;         ///< DRAT proof logging + RUP checking.
  int SeqLenBound = 3;          ///< ArrayList case-split bound.
  int64_t ConflictBudget = 200000; ///< Per-VC CDCL conflict budget.
  size_t CompactMinDead = 64; ///< Dead-entry floor for a compaction pass.
};

/// Cumulative service statistics plus a snapshot of the warm session's
/// solver accounting.
struct ServiceStats {
  uint64_t Requests = 0; ///< Requests served over the service lifetime.
  uint64_t Drains = 0;
  /// Pair scopes opened to serve requests. Under batching this counts
  /// groups; under FIFO it equals Requests — the gap is the work prefix
  /// batching saved.
  uint64_t PairGroups = 0;
  /// Requests served against a pair scope another request of the same
  /// drain already opened (zero under FIFO).
  uint64_t BatchedReuses = 0;
  uint64_t MethodsDischarged = 0;
  /// Pair plans built: the plan table's size, at most one per catalog
  /// pair served. Not part of snapshot() — a restored service re-plans
  /// lazily.
  uint64_t PlansBuilt = 0;
  double ServeMillis = 0; ///< Wall time spent inside drain().
  CatalogSessionStats Session;
};

/// The warm verification service. Not thread-safe: one service, one
/// caller (the request loop of tools/ServeMain.cpp).
class VerifyService {
public:
  /// \p Fams must be a subset of \p C's families and outlive the service;
  /// the catalog (and its factory) must outlive it too.
  VerifyService(const Catalog &C, const std::vector<const Family *> &Fams,
                const ServiceConfig &Cfg)
      : VerifyService(C, Fams, Cfg, nullptr, nullptr) {}
  /// Shard constructor (ShardedVerifyService): a non-null \p SharedPlan
  /// replaces the per-service planCatalog pass (it must be the plan for
  /// exactly this \p C / \p Fams and outlive the service), and a non-null
  /// \p Prefix makes the warm session *load* the pre-encoded catalog
  /// prefix instead of re-encoding it.
  VerifyService(const Catalog &C, const std::vector<const Family *> &Fams,
                const ServiceConfig &Cfg, const CatalogPlan *SharedPlan,
                const PrefixImage *Prefix);
  VerifyService(const VerifyService &) = delete;
  VerifyService &operator=(const VerifyService &) = delete;

  /// Captures the warm session's catalog-common prefix for sibling shards
  /// (legal only before the first drain; see SmtSession::exportPrefix).
  PrefixImage exportPrefix() { return Sess->exportPrefix(); }
  /// The catalog plan this service serves from (shared across shards).
  const CatalogPlan &plan() const { return *Plan; }

  /// Queues one request. Returns false — with \p Error set — when the
  /// family is not served or the pair has no catalog entry.
  bool submit(const ServiceRequest &R, std::string &Error);

  /// Serves every pending request and returns their verdicts in the order
  /// served (grouped under batching, arrival order under FIFO). The
  /// verdicts are also appended to log().
  std::vector<ServiceVerdict> drain();

  size_t pending() const { return Pending.size(); }
  const std::vector<ServiceVerdict> &log() const { return VerdictLog; }
  const ServiceConfig &config() const { return Cfg; }
  ServiceStats stats() const;

  /// The warm session's solver, exposed so callers can assert invariants
  /// (reasonInvariantHolds) after compacting drains.
  SmtSession &session() { return Sess->session(); }

  /// Restarts the per-pass peak counters (live vars / clauses / bridges)
  /// from the current live counts — called between catalog passes so the
  /// plateau criterion compares per-pass peaks.
  void resetPeakStats() { Sess->resetPeakStats(); }

  bool certifying() const { return Sess->certifying(); }
  /// Checks the warm session's proof trace (idempotent; meaningful only
  /// when Cfg.Certify).
  const proof::CertifySummary &finishCertification() {
    return Sess->finishCertification();
  }

  /// Serializes the service image: config, cumulative statistics, and the
  /// verdict log.
  json::Value snapshot() const;
  /// Restores counters and the verdict log from a snapshot(). The
  /// snapshot's config and family set must match this service's. Pending
  /// requests are unaffected; the warm solver re-warms lazily.
  bool restore(const json::Value &V, std::string &Error);

private:
  struct ResolvedRequest {
    ServiceRequest Req;
    size_t FamIdx = 0;             ///< Index into Fams / the catalog plan.
    const ConditionEntry *Entry = nullptr;
  };

  /// \p E's pair plan from the plan table, built on first use.
  const PairPlan &planFor(const ConditionEntry &E);

  /// Discharges \p RR's two testing methods out of \p PP against the warm
  /// pair scope and appends the verdict.
  void serveOne(const ResolvedRequest &RR, const PairPlan &PP,
                std::vector<ServiceVerdict> &Out);

  const Catalog &C;
  std::vector<const Family *> Fams;
  ServiceConfig Cfg;
  SymbolicEngine Eng;
  /// Owned plan for standalone services; null when a shard serves from
  /// the front-end's shared plan.
  std::unique_ptr<CatalogPlan> OwnedPlan;
  const CatalogPlan *Plan; ///< Pairs unmaterialized; must outlive Sess.
  std::unique_ptr<CatalogSession> Sess;
  std::map<std::string, size_t> FamIdxByName;
  /// Pair plans by catalog entry, filled lazily by planFor().
  std::unordered_map<const ConditionEntry *, PairPlan> Plans;

  std::vector<ResolvedRequest> Pending;
  std::vector<ServiceVerdict> VerdictLog;
  uint64_t Drains = 0;
  uint64_t PairGroups = 0;
  uint64_t BatchedReuses = 0;
  uint64_t MethodsDischarged = 0;
  double ServeMillis = 0;
};

/// Round-trip helpers for ConditionKind in request/snapshot JSON
/// ("before" / "between" / "after"; parse returns false on anything else).
const char *serviceKindName(ConditionKind K);
bool parseServiceKind(const std::string &Name, ConditionKind &K);

} // namespace service
} // namespace semcomm

#endif // SEMCOMM_SERVICE_VERIFYSERVICE_H
