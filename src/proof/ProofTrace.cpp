//===- proof/ProofTrace.cpp - DRAT-style solver proof log -------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "proof/ProofTrace.h"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <string>

using namespace semcomm;
using namespace semcomm::proof;

const char *proof::stepKindName(StepKind K) {
  switch (K) {
  case StepKind::Input:
    return "input";
  case StepKind::Derive:
    return "derive";
  case StepKind::Delete:
    return "delete";
  case StepKind::Recycle:
    return "recycle";
  case StepKind::Query:
    return "query";
  }
  return "?";
}

std::string ProofTrace::serialize() const {
  std::string Out = "p semcommute-proof " + std::to_string(Steps.size()) + "\n";
  for (const Step &S : Steps) {
    switch (S.Kind) {
    case StepKind::Input:
      Out += 'i';
      break;
    case StepKind::Derive:
      Out += 'l';
      break;
    case StepKind::Delete:
      Out += 'd';
      break;
    case StepKind::Recycle:
      Out += "r " + std::to_string(S.Var) + " 0\n";
      continue;
    case StepKind::Query:
      Out += "q " + std::to_string(S.LiveClauses);
      break;
    }
    for (int L : S.Lits)
      Out += ' ' + std::to_string(L);
    Out += " 0";
    if (S.Kind == StepKind::Query && !S.Tag.empty())
      Out += ' ' + S.Tag;
    Out += '\n';
  }
  return Out;
}

namespace {

/// Splits \p Line on single spaces (the only separator serialize() emits).
/// Every field is kept, so a doubled, leading or trailing space shows up
/// as an empty token, which no field accepts.
std::vector<std::string> tokens(const std::string &Line) {
  std::vector<std::string> Out;
  size_t Start = 0;
  for (size_t Sp; (Sp = Line.find(' ', Start)) != std::string::npos;
       Start = Sp + 1)
    Out.push_back(Line.substr(Start, Sp - Start));
  Out.push_back(Line.substr(Start));
  return Out;
}

/// Reads a decimal integer in the one form serialize() prints it (no sign
/// other than '-', no leading zeros, no whitespace, within range), so a
/// parsed trace serializes back to exactly the text it was read from.
bool parseInt(const std::string &Tok, long &Out) {
  errno = 0;
  char *End = nullptr;
  Out = std::strtol(Tok.c_str(), &End, 10);
  return errno == 0 && std::to_string(Out) == Tok;
}

/// Parses `<lits> 0` starting at token \p From; returns false unless the
/// zero terminator is exactly at the end (Query tags are handled by the
/// caller before this runs).
bool parseLits(const std::vector<std::string> &Toks, size_t From, size_t To,
               std::vector<int> &Lits) {
  if (To <= From || To > Toks.size())
    return false;
  for (size_t I = From; I + 1 < To; ++I) {
    long V;
    if (!parseInt(Toks[I], V) || V == 0 || V < -INT_MAX || V > INT_MAX)
      return false;
    Lits.push_back(static_cast<int>(V));
  }
  return Toks[To - 1] == "0";
}

} // namespace

std::optional<ProofTrace> ProofTrace::parse(const std::string &Text) {
  ProofTrace T;
  size_t Pos = 0, LineNo = 0;
  long Declared = -1;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    // Every serialized line ends in '\n'; a missing terminator means the
    // file was truncated mid-line.
    if (Nl == std::string::npos)
      return std::nullopt;
    std::string Line = Text.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    std::vector<std::string> Toks = tokens(Line);
    if (Toks.empty())
      return std::nullopt;
    if (LineNo++ == 0) {
      if (Toks.size() != 3 || Toks[0] != "p" || Toks[1] != "semcommute-proof" ||
          !parseInt(Toks[2], Declared) || Declared < 0)
        return std::nullopt;
      continue;
    }
    std::vector<int> Lits;
    if (Toks[0] == "i" || Toks[0] == "l" || Toks[0] == "d") {
      if (!parseLits(Toks, 1, Toks.size(), Lits))
        return std::nullopt;
      if (Toks[0] == "i")
        T.addInput(std::move(Lits));
      else if (Toks[0] == "l")
        T.addDerive(std::move(Lits));
      else
        T.addDelete(std::move(Lits));
    } else if (Toks[0] == "r") {
      long V;
      if (Toks.size() != 3 || !parseInt(Toks[1], V) || V < 1 ||
          V > INT_MAX || Toks[2] != "0")
        return std::nullopt;
      T.Steps.push_back({StepKind::Recycle, {}, static_cast<int>(V), 0, {}});
    } else if (Toks[0] == "q") {
      long Live;
      if (Toks.size() < 3 || !parseInt(Toks[1], Live) || Live < 0)
        return std::nullopt;
      // Literals run from token 2 up to the "0" terminator; an optional
      // tag (which never contains spaces the solver side would split on —
      // it is a single token) follows.
      size_t Zero = 2;
      while (Zero < Toks.size() && Toks[Zero] != "0")
        ++Zero;
      if (Zero >= Toks.size() || Zero + 2 < Toks.size())
        return std::nullopt;
      if (!parseLits(Toks, 2, Zero + 1, Lits))
        return std::nullopt;
      std::string Tag = Zero + 1 < Toks.size() ? Toks[Zero + 1] : "";
      if (Zero + 1 < Toks.size() && Tag.empty())
        return std::nullopt;
      T.Steps.push_back({StepKind::Query, std::move(Lits), 0,
                         static_cast<uint64_t>(Live), std::move(Tag)});
      ++T.Queries;
    } else {
      return std::nullopt;
    }
  }
  if (Declared < 0 || static_cast<size_t>(Declared) != T.Steps.size())
    return std::nullopt;
  return T;
}
