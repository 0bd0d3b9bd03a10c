//===- lint/Lint.h - Static auditor for the scope/hoist discipline -*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `semcommute-lint` analysis library: static checks over the logic IR
/// and the session scripts the symbolic engine drives, run WITHOUT any SAT
/// search. The soundness of the catalog-level session rests on a handful of
/// discipline invariants that live in different layers (the planner's hoist
/// rule, the encoder's ancestor-chain lookup, the session's retire-forever
/// scope contract); this library restates each invariant independently
/// and checks the shipped catalog — and arbitrary audit streams — against
/// the restatement, so a drift between the layers surfaces as a lint
/// finding instead of a silently wrong verdict.
///
/// Diagnostic codes (stable; CI and the seeded-violation tests key on them):
///
///   SORT01  A formula is ill-sorted (an operand's sort violates its
///           node kind) or one variable name occurs at two different
///           sorts inside one catalog entry's vocabulary.
///   HOIST01 A catalog-common (hoisted) formula mentions a variable that
///           occurs in the *materialized* plans of an entry that does not
///           assert the formula itself — hoisting it could change that
///           entry's verdict.
///   SCOPE01 A Tseitin definition was referenced from a layer that is not
///           on the referencing layer's ancestor chain (a sibling's
///           definitions may be evicted with that sibling; the reference
///           would dangle).
///   SCOPE02 A scope's audit name was reused after a scope of that name
///           was opened once already (the session names each opening by
///           its label and a session-unique serial, so the events of a
///           retired scope and of its re-opened successor stay apart).
///   SCOPE03 An assertion or check named a scope that was already
///           retired.
///   LABEL01 An assumption label is empty, contains a reserved delimiter
///           (';' joins countermodels, '|' joins proof tags), or
///           duplicates another label in the same check's namespace.
///
/// The hoist check deliberately does NOT reuse the planner's
/// entryVocabulary() over-approximation: it recollects variable keys from
/// the fully materialized method plans (Common + Scoped + every split), so
/// it cross-checks the approximation rather than re-executing it. The
/// scope checks run over audit::Log streams recorded by a *real*
/// SmtSession/Tseitin replay of the catalog (encoding, no solving), so
/// they exercise the production encoder paths rather than a model of them.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_LINT_LINT_H
#define SEMCOMM_LINT_LINT_H

#include "commute/Condition.h"
#include "commute/SessionPool.h"
#include "smt/SessionAudit.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace semcomm {

class SymbolicEngine;

namespace lint {

/// One machine-readable lint diagnostic.
struct Finding {
  std::string Code;    ///< Stable diagnostic code ("SORT01", ...).
  std::string Where;   ///< Location: entry / scope / plan the issue is in.
  std::string Message; ///< Human-readable description.
};

/// The registered checks, for `semcommute-lint --list-checks`.
struct CheckInfo {
  const char *Code;
  const char *Summary;
};
const std::vector<CheckInfo> &checks();

//===----------------------------------------------------------------------===//
// SORT01: sorts and vocabulary
//===----------------------------------------------------------------------===//

/// The (name, sort) identity of a variable — the same restatement of
/// "which variable is this" that the planner's hoist rule uses, maintained
/// here independently so the two cannot drift without the cross-check
/// noticing. Sort matters: Accumulator's increase(v) makes an *Int* "v1"
/// that must not collide with the object-sorted "v1" of the containers.
std::string varKey(const std::string &Name, Sort S);

/// Collects the varKey of every Var leaf of \p E into \p Out.
void collectVars(ExprRef E, std::set<std::string> &Out);

/// Structural sort check of one formula: every node's operand sorts must
/// match its kind (And/Or/Not over Bool, Lt/Le over Int, state queries
/// over State, Eq over equal sorts, ...). The factory's smart constructors
/// assert the same rules, but those asserts compile away under NDEBUG;
/// this is the release-mode restatement.
void checkFormulaSorts(ExprRef E, const std::string &Where,
                       std::vector<Finding> &Out);

/// Vocabulary coherence of one formula set: flags a variable name used at
/// two different sorts across \p Formulas (one finding per name).
std::vector<Finding>
checkVocabularyCoherence(const std::vector<ExprRef> &Formulas,
                         const std::string &Where);

/// Sort + vocabulary check of every condition of every entry of \p Fams.
std::vector<Finding> checkCatalogSorts(const Catalog &C,
                                       const std::vector<const Family *> &Fams);

//===----------------------------------------------------------------------===//
// HOIST01: the catalog-common hoisting rule
//===----------------------------------------------------------------------===//

/// One entry's view of the hoist rule: the Common formulas it asserts
/// itself and the variable keys its materialized plans actually mention.
struct HoistEntry {
  std::string Name;              ///< "Set add,contains" style.
  std::set<ExprRef> Common;      ///< Formulas in the entry's own prefix.
  std::set<std::string> Vars;    ///< varKeys over the whole materialized plan.
};

/// The hoist rule itself: every catalog-common formula must, for every
/// entry, either be in the entry's own Common prefix or mention no
/// variable the entry's plans mention (asserting it is then vacuous for
/// that entry). One HOIST01 finding per violated (formula, entry) pair.
std::vector<Finding>
checkHoistRule(const std::vector<ExprRef> &CatalogCommon,
               const std::vector<HoistEntry> &Entries);

/// Materializes every entry's plans through \p Eng and checks the catalog
/// plan's hoisted prefix against checkHoistRule.
std::vector<Finding>
checkCatalogHoisting(const SymbolicEngine &Eng, const Catalog &C,
                     const std::vector<const Family *> &Fams);

//===----------------------------------------------------------------------===//
// SCOPE01/02/03: audit-stream analysis
//===----------------------------------------------------------------------===//

/// Incremental analyzer over audit::Event streams, so whole-catalog
/// replays can drain their log pair by pair instead of buffering millions
/// of encoder events. Scope names are tracked for the analyzer's whole
/// lifetime (SCOPE02 is a *forever* property: an audit name, once opened,
/// may never come back).
class AuditAnalyzer {
public:
  void feed(const audit::Event &E);
  /// Feeds every event of \p L, then clears it (streaming use).
  void drain(audit::Log &L);

  const std::vector<Finding> &findings() const { return Findings; }
  std::vector<Finding> takeFindings() { return std::move(Findings); }
  uint64_t eventsSeen() const { return Events; }

private:
  /// True when \p Found is on \p Active's ancestor chain.
  bool onAncestorChain(unsigned Found, unsigned Active) const;

  std::set<std::string> Opened;  ///< Every scope name ever opened.
  std::set<std::string> Retired; ///< Scopes permanently retired.
  /// The live Tseitin layer tree (a dropped layer's id may be reused).
  std::map<unsigned, unsigned> LayerParent;
  std::vector<Finding> Findings;
  uint64_t Events = 0;
};

/// One-shot convenience over AuditAnalyzer (fixtures, tests).
std::vector<Finding> checkAuditLog(const audit::Log &L);

//===----------------------------------------------------------------------===//
// LABEL01: assumption-label well-formedness
//===----------------------------------------------------------------------===//

/// Labels of one method plan: the Scoped prefix labels and, per split,
/// the split's assumption labels plus the method name (the namespace one
/// check's unsat core is attributed over). Flags empty labels, reserved
/// delimiters, and duplicates within one check's namespace.
std::vector<Finding> checkPlanLabels(const std::string &Where,
                                     const MethodPlan &MP);

//===----------------------------------------------------------------------===//
// Whole-catalog entry point
//===----------------------------------------------------------------------===//

/// Everything the catalog lint produced, plus coverage counters so the CLI
/// (and CI) can assert the lint actually looked at the whole catalog.
struct LintResult {
  std::vector<Finding> Findings;
  uint64_t EntriesChecked = 0;
  uint64_t FormulasChecked = 0;   ///< Conditions sort-checked.
  uint64_t HoistedChecked = 0;    ///< Catalog-common formulas audited.
  uint64_t MethodsChecked = 0;    ///< Method plans label-checked.
  uint64_t AuditEvents = 0;       ///< Session replay events analyzed.
};

/// Runs every check over the shipped catalog restricted to \p Fams (empty
/// = all four families): sorts and vocabulary of all conditions, the
/// hoisting rule over the catalog plan, labels of every materialized
/// method plan, and a structural replay of the catalog-session script
/// through a real (audited, non-solving) SmtSession whose event stream
/// the scope analyzer validates.
LintResult lintCatalog(ExprFactory &F, int SeqLenBound = 3,
                       const std::vector<std::string> &FamilyNames = {});

//===----------------------------------------------------------------------===//
// Seeded violations (CI fixtures)
//===----------------------------------------------------------------------===//

/// Deliberately broken inputs, one per diagnostic, each yielding exactly
/// one finding with the named code — CI runs `semcommute-lint
/// --seed-violation <kind>` and asserts the nonzero exit and the code.
enum class SeededViolation : uint8_t {
  IllSorted,              ///< SORT01
  MisHoisted,             ///< HOIST01
  CrossSiblingReference,  ///< SCOPE01
  ReusedSelector,         ///< SCOPE02
  UseAfterRetire,         ///< SCOPE03
  DuplicateLabel,         ///< LABEL01
};

const char *seededViolationName(SeededViolation V);
/// Parses a --seed-violation argument; false when unknown.
bool parseSeededViolation(const std::string &Name, SeededViolation &V);
/// All kinds, in declaration order (CLI help, exhaustive tests).
const std::vector<SeededViolation> &allSeededViolations();

/// Builds the broken fixture for \p V and runs the relevant checker on it.
std::vector<Finding> seededViolationFindings(ExprFactory &F,
                                             SeededViolation V);

} // namespace lint
} // namespace semcomm

#endif // SEMCOMM_LINT_LINT_H
