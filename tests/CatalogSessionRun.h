//===- tests/CatalogSessionRun.h - Drive a multi-pair session ---*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The session tests' one driver of a multi-pair CatalogSession: every
/// entry of a family list discharged through one session, each pair
/// planned just before its discharge and retired once its six methods are
/// done, the way the verification service serves a catalog pass. The
/// engine itself only ever opens one-pair sessions (verifyPair), so the
/// tests of cross-pair sharing, eviction and recycling drive the session
/// through this helper.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_TESTS_CATALOGSESSIONRUN_H
#define SEMCOMM_TESTS_CATALOGSESSIONRUN_H

#include "commute/SymbolicEngine.h"

#include <string>
#include <vector>

namespace semcomm {
namespace testing_support {

/// One pair's share of a catalog session run.
struct SessionPairRun {
  std::string Key; ///< The pair plan's key, "op1,op2".
  std::vector<SymbolicResult> Methods; ///< Enumeration order.
};

/// Discharges every entry of each of \p Fams, in catalog order, through
/// \p Sess, whose plan must be Eng.planCatalog(C, Fams). With \p Retire
/// each pair is retired once its six methods are done; without it every
/// pair stays live (the no-eviction reference). Returns the pairs per
/// family, in \p Fams order.
inline std::vector<std::vector<SessionPairRun>>
runCatalogSession(const SymbolicEngine &Eng, const Catalog &C,
                  const std::vector<const Family *> &Fams,
                  CatalogSession &Sess, bool Retire = true) {
  std::vector<std::vector<SessionPairRun>> Out(Fams.size());
  for (size_t FI = 0; FI != Fams.size(); ++FI)
    for (const ConditionEntry &E : C.entries(*Fams[FI])) {
      PairPlan PP = Eng.planPair(E);
      SessionPairRun Run{PP.Key, {}};
      for (const MethodPlan &MP : PP.Methods) {
        SymbolicResult R;
        R.Verified = Sess.discharge(FI, PP.Key, MP, R);
        Run.Methods.push_back(std::move(R));
      }
      if (Retire)
        Sess.retirePair(FI, PP.Key);
      Out[FI].push_back(std::move(Run));
    }
  return Out;
}

/// Methods of \p Runs that failed to verify.
inline unsigned
failuresOf(const std::vector<std::vector<SessionPairRun>> &Runs) {
  unsigned N = 0;
  for (const std::vector<SessionPairRun> &Fam : Runs)
    for (const SessionPairRun &P : Fam)
      for (const SymbolicResult &R : P.Methods)
        N += !R.Verified;
  return N;
}

} // namespace testing_support
} // namespace semcomm

#endif // SEMCOMM_TESTS_CATALOGSESSIONRUN_H
