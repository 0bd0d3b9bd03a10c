//===- service/ShardedVerifyService.h - Sharded serving front-end -*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verification service: N warm sessions (shards) behind one
/// submit/drain front-end — the one serving path (semcommute-serve runs
/// one shard by default). The front-end resolves every request against
/// the served catalog, routes it to a shard by a stable hash of its family
/// (or family+pair — the default, which balances the four-family
/// catalog), keeps the one verdict log, and owns the snapshot. Each shard
/// is a VerifyService (warm CatalogSession, plan table, prefix-batched
/// drains) that serves only what it is handed; a drain runs
/// every shard's drain, on a work-stealing ThreadPool when Threads > 1.
///
/// One catalog plan: planCatalog runs once, here, and every shard serves
/// from the shared read-only plan. Every shard then encodes the
/// catalog-common prefix and its bridge lattice itself; that costs a
/// fraction of the plan, and shards over one plan and factory start from
/// the same database (ShardedServiceTest pins clauses, atoms and bridges
/// against a one-shard service).
///
/// Determinism: routing and per-shard serve order are functions of the
/// request stream alone — never of thread scheduling — and shards share
/// nothing mutable while they drain. drain() returns the per-shard verdict
/// groups concatenated in shard-id order, so at a fixed shard count the
/// verdict log is byte-identical across thread counts (ShardedServiceTest
/// pins 1 vs 8 threads), and verdict *values* are the same at every shard
/// count.
///
/// Snapshot / reload: snapshot() serializes the service image (schema 4:
/// the config, the served families, the front-end counters, one counter
/// row per shard, and the verdict log) to JSON; restore() loads it into a
/// freshly constructed service. A shard's request count is not stored:
/// restore routes the restored log through shardOf. The warm solver state
/// is deliberately not serialized — it is a deterministic function of the
/// catalog, so a reloaded service re-warms lazily as requests arrive while
/// its counters and log continue from the snapshot.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_SERVICE_SHARDEDVERIFYSERVICE_H
#define SEMCOMM_SERVICE_SHARDEDVERIFYSERVICE_H

#include "service/VerifyService.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace semcomm {
namespace service {

/// How requests map to shards. Family keeps a family's whole traffic on
/// one shard (maximal prefix locality, but the four-family catalog can
/// then use at most four shards); Pair hashes family+pair, balancing load
/// across any shard count — the default.
enum class RouteBy : uint8_t { Family, Pair };

/// Front-end construction knobs. Base carries the per-shard session
/// configuration (certify, the sequence bound, the conflict budget).
struct ShardedServiceConfig {
  ServiceConfig Base;
  unsigned Shards = 4;
  /// Worker threads for drains; 1 runs shards sequentially in shard-id
  /// order on the caller's thread. Thread count never changes verdicts,
  /// logs, or per-shard stats — only wall time.
  unsigned Threads = 1;
  RouteBy Route = RouteBy::Pair;
};

/// Per-shard accounting beyond the shard's own ServiceStats.
struct ShardStats {
  ServiceStats Stats;
  double WarmupMillis = 0; ///< Shard construction wall time.
  /// Always 0: shards trade no learned clauses. Kept only because the
  /// benchmark's service.clauses_adopted row reads it.
  uint64_t ClausesAdopted = 0;
};

struct ShardedServiceStats {
  std::vector<ShardStats> Shards;
  uint64_t Requests = 0;
  uint64_t Drains = 0;
  double ServeMillis = 0;
  double PlanMillis = 0; ///< The shared planCatalog pass.
  /// Always 0: every shard encodes its own prefix, none imports one. Kept
  /// only because the benchmark's service.warmup_import_ms row reads it.
  double WarmupImportMillisAvg = 0;
};

/// The verification service: the front-end over its shards. Not
/// thread-safe at the interface: one caller submits and drains; drains
/// fan out internally.
class ShardedVerifyService {
public:
  ShardedVerifyService(const Catalog &C,
                       const std::vector<const Family *> &Fams,
                       const ShardedServiceConfig &Cfg);

  /// Resolves, routes and queues one request. Returns false — with
  /// \p Error set — when the family is not served or the pair has no
  /// catalog entry.
  bool submit(const ServiceRequest &R, std::string &Error);

  /// Drains every shard (parallel when Threads > 1) and returns the
  /// per-shard verdict groups concatenated in shard-id order. The
  /// verdicts are also appended to log().
  std::vector<ServiceVerdict> drain();

  size_t pending() const;
  const std::vector<ServiceVerdict> &log() const { return VerdictLog; }
  const ShardedServiceConfig &config() const { return Cfg; }
  ShardedServiceStats stats() const;
  unsigned numShards() const { return static_cast<unsigned>(Shards.size()); }
  /// The shard a request routes to (exposed for tests).
  size_t shardOf(const ServiceRequest &R) const;
  VerifyService &shard(size_t S) { return *Shards[S]; }

  /// Pass-boundary hook: restarts every shard's peak counters.
  void resetPeakStats();

  bool certifying() const { return Cfg.Base.Certify; }
  /// Folds every shard's certification outcome (each shard's proof
  /// stream is checked independently — per-shard --certify).
  proof::CertifySummary finishCertification();

  /// Serializes the service image (schema 4; see the file comment).
  json::Value snapshot() const;
  /// Restores a snapshot() into a freshly constructed service. Every
  /// config field and the family set must match this service's, every
  /// field must have its type and range (numbers in [0, 2^53]), and every
  /// log row must name a served (family, pair). Anything else is rejected
  /// with a one-line \p Error naming the field, and the service stays
  /// fresh.
  bool restore(const json::Value &V, std::string &Error);

private:
  /// Resolves \p R against the served catalog (false with \p Error set
  /// when the family is not served or the pair has no catalog entry).
  bool resolve(const ServiceRequest &R, ResolvedRequest &Out,
               std::string &Error) const;

  const Catalog &C;
  std::vector<const Family *> Fams;
  std::map<std::string, size_t> FamIdxByName;
  ShardedServiceConfig Cfg;
  CatalogPlan Plan; ///< Shared, read-only; outlives every shard.
  std::vector<std::unique_ptr<VerifyService>> Shards;
  std::unique_ptr<ThreadPool> Pool; ///< Null when Threads <= 1.
  std::vector<double> WarmupMillis;

  std::vector<ServiceVerdict> VerdictLog;
  uint64_t Drains = 0;
  double ServeMillis = 0;
  double PlanMillis = 0;
};

} // namespace service
} // namespace semcomm

#endif // SEMCOMM_SERVICE_SHARDEDVERIFYSERVICE_H
