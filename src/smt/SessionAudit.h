//===- smt/SessionAudit.h - Session discipline event log --------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A passive event log of everything a session does that the scope/hoist
/// discipline constrains: scope openings, scoped assertions, checks,
/// retirements, Tseitin layer pushes/drops, definition creations, and
/// cross-layer definition references. SmtSession and Tseitin record into
/// it when a log is attached (never otherwise — recording is off the hot
/// path by default); the `semcommute-lint` analyzer replays the stream and
/// flags violations (a definition referenced from a sibling layer, a
/// scope name reused after retirement, ...). Pure data — this header has no
/// dependencies so the lint library can consume it without linking the
/// solver.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_SMT_SESSIONAUDIT_H
#define SEMCOMM_SMT_SESSIONAUDIT_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace semcomm {
namespace audit {

enum class EventKind : uint8_t {
  OpenScope,  ///< A scope was opened.
  Assert,     ///< A formula was asserted into a scope.
  Check,      ///< A query ran with a set of active scopes.
  Retire,     ///< A scope (with its subtree) was permanently retired.
  PushLayer,  ///< A Tseitin cache layer was created under a parent.
  DropLayer,  ///< A Tseitin cache layer was evicted.
  Define,     ///< A fresh definition variable was created in a layer.
  Reference,  ///< A cached definition was found in \c Layer while
              ///< \c ActiveLayer was active (legal only on the ancestor
              ///< chain).
};

struct Event {
  EventKind Kind;
  /// OpenScope/Assert/Retire: the scope's audit name (its label and its
  /// session-unique opening serial).
  std::string Scope;
  /// Check: the audit names of the checked scope's path, outermost first.
  std::vector<std::string> Scopes;
  /// PushLayer/DropLayer/Define/Reference: the subject layer.
  unsigned Layer = 0;
  /// Reference: the layer active at lookup time. PushLayer: the parent.
  unsigned ActiveLayer = 0;
};

/// The recording surface. Attach one to an SmtSession (setAuditLog) before
/// driving it; the lint fixtures also construct streams by hand.
struct Log {
  std::vector<Event> Events;

  void openScope(std::string Name) {
    Events.push_back({EventKind::OpenScope, std::move(Name), {}, 0, 0});
  }
  void assertInScope(std::string Name) {
    Events.push_back({EventKind::Assert, std::move(Name), {}, 0, 0});
  }
  void check(std::vector<std::string> Names) {
    Events.push_back({EventKind::Check, {}, std::move(Names), 0, 0});
  }
  void retire(std::string Name) {
    Events.push_back({EventKind::Retire, std::move(Name), {}, 0, 0});
  }
  void pushLayer(unsigned Layer, unsigned Parent) {
    Events.push_back({EventKind::PushLayer, {}, {}, Layer, Parent});
  }
  void dropLayer(unsigned Layer) {
    Events.push_back({EventKind::DropLayer, {}, {}, Layer, 0});
  }
  void define(unsigned Layer) {
    Events.push_back({EventKind::Define, {}, {}, Layer, 0});
  }
  void reference(unsigned FoundLayer, unsigned ActiveLayer) {
    Events.push_back(
        {EventKind::Reference, {}, {}, FoundLayer, ActiveLayer});
  }
};

} // namespace audit
} // namespace semcomm

#endif // SEMCOMM_SMT_SESSIONAUDIT_H
