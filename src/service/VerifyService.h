//===- service/VerifyService.h - Verification service shard -----*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request and verdict types of the verification service, and one
/// shard of it: a warm CatalogSession with a plan table, a pending queue
/// and drain counters. The service itself is ShardedVerifyService, which
/// resolves requests, routes them to shards, keeps the one verdict log and
/// owns the snapshot; a shard only serves the resolved requests it is
/// handed. A shard's drain() serves every pending request against the warm
/// session (soundness + completeness — the condition kind's two testing
/// methods).
///
/// Serving discipline:
///
///  * Plan table: a pair's six method plans are a pure function of its
///    catalog entry, the sequence bound and the hints, and their ExprRefs
///    live in the catalog's factory. Each shard therefore builds a pair's
///    plan once per lifetime, the first time the pair is served, and
///    every later drain reads it from the table. The table is bounded by
///    the catalog's pairs.
///
///  * Prefix batching: pending requests are grouped by family, then by
///    op-pair, in first-appearance order. A pair's scope is opened once
///    per group, every request of the group discharged against the warm
///    pair scope, and the scope retired when the group completes — so N
///    same-pair requests pay one scope open/retire instead of N.
///
///  * Bounded sessions: the shard's CatalogSession is the one every
///    driver session runs. Retiring a pair scope evicts its clauses and
///    recycles its definition variables and its selector (a solver
///    variable, not an interned expression, so re-opening a pair interns
///    nothing), and the theory atoms and bridges the catalog can mention
///    are finite, so live clauses, live variables, live bridges and the
///    expression factory plateau after the first full catalog pass
///    instead of growing with the request count.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_SERVICE_VERIFYSERVICE_H
#define SEMCOMM_SERVICE_VERIFYSERVICE_H

#include "commute/SymbolicEngine.h"

#include <cstdint>
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

/// A request resolved against the served catalog.
struct ResolvedRequest {
  ServiceRequest Req;
  size_t FamIdx = 0; ///< Index into the served families / catalog plan.
  const ConditionEntry *Entry = nullptr;
};

/// Service construction knobs (every shard gets the same).
struct ServiceConfig {
  bool Certify = false;            ///< DRAT proof logging + RUP checking.
  int SeqLenBound = 3;             ///< ArrayList case-split bound.
  int64_t ConflictBudget = 200000; ///< Per-VC CDCL conflict budget.
};

/// One shard's cumulative statistics plus a snapshot of its warm session's
/// solver accounting.
struct ServiceStats {
  uint64_t Requests = 0; ///< Requests served over the shard lifetime.
  uint64_t Drains = 0;
  /// Pair scopes opened to serve requests: one per (family, pair) group
  /// of a drain.
  uint64_t PairGroups = 0;
  /// Requests served against a pair scope another request of the same
  /// drain already opened: Requests - PairGroups.
  uint64_t BatchedReuses = 0;
  uint64_t MethodsDischarged = 0; ///< Two per request.
  /// Pair plans built: the plan table's size, at most one per catalog
  /// pair served. Not part of the snapshot — a restored shard re-plans
  /// lazily.
  uint64_t PlansBuilt = 0;
  double ServeMillis = 0; ///< Wall time spent inside drain().
  CatalogSessionStats Session;
};

/// One shard: a warm session serving resolved requests. Not thread-safe;
/// the front-end drains distinct shards concurrently.
class VerifyService {
public:
  /// \p Plan is the front-end's catalog plan (it must outlive the shard,
  /// as must the catalog and its factory). The warm session encodes the
  /// catalog-common prefix itself.
  VerifyService(const Catalog &C, const CatalogPlan &Plan,
                const ServiceConfig &Cfg);
  VerifyService(const VerifyService &) = delete;
  VerifyService &operator=(const VerifyService &) = delete;

  /// Queues one resolved request.
  void submit(const ResolvedRequest &RR) { Pending.push_back(RR); }

  /// Serves every pending request and returns their verdicts in the order
  /// served: grouped by family, then by pair, in first-appearance order.
  std::vector<ServiceVerdict> drain();

  size_t pending() const { return Pending.size(); }
  ServiceStats stats() const;

  /// Sets the lifetime counters of a fresh shard (snapshot restore).
  void restoreCounters(uint64_t Served, uint64_t DrainCount,
                       uint64_t Groups);

  /// The warm session's solver, exposed so callers can assert invariants
  /// (reasonInvariantHolds) after drains.
  SmtSession &session() { return Sess.session(); }

  /// Restarts the per-pass peak counters (live vars / clauses / bridges)
  /// from the current live counts — called between catalog passes so the
  /// plateau criterion compares per-pass peaks.
  void resetPeakStats() { Sess.resetPeakStats(); }

  /// Checks the warm session's proof trace (idempotent; meaningful only
  /// when the config's Certify is set).
  const proof::CertifySummary &finishCertification() {
    return Sess.finishCertification();
  }

private:
  /// \p E's pair plan from the plan table, built on first use.
  const PairPlan &planFor(const ConditionEntry &E);

  /// Discharges \p RR's two testing methods out of \p PP against the warm
  /// pair scope and appends the verdict.
  void serveOne(const ResolvedRequest &RR, const PairPlan &PP,
                std::vector<ServiceVerdict> &Out);

  SymbolicEngine Eng;
  CatalogSession Sess;
  /// Pair plans by catalog entry, filled lazily by planFor().
  std::unordered_map<const ConditionEntry *, PairPlan> Plans;

  std::vector<ResolvedRequest> Pending;
  uint64_t Requests = 0;
  uint64_t Drains = 0;
  uint64_t PairGroups = 0;
  double ServeMillis = 0;
};

} // namespace service
} // namespace semcomm

#endif // SEMCOMM_SERVICE_VERIFYSERVICE_H
