//===- tests/TextMutator.h - Seeded mutation of serialized text -*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reader fuzzers' deterministic mutator: splitmix64-seeded bit flips,
/// byte replacements from the format's alphabet, truncations, short range
/// deletions, splices of the seed texts, and line moves and line splices
/// (the seeds are line-oriented: one member, element or step per line).
/// A reader under test must reject every mutant or read back a value that
/// serializes to it; never crash or hang.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_TESTS_TEXTMUTATOR_H
#define SEMCOMM_TESTS_TEXTMUTATOR_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace semcomm {
namespace testing_support {

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

/// Mutates texts by one to three edits each, splicing from \p Seeds.
class TextMutator {
public:
  TextMutator(std::vector<std::string> Seeds, std::string Alphabet,
              uint64_t RngSeed)
      : Seeds(std::move(Seeds)), Alphabet(std::move(Alphabet)),
        Rng{RngSeed} {}

  const std::vector<std::string> &seeds() const { return Seeds; }

  std::string mutate(std::string T) {
    for (size_t Ops = 1 + Rng.below(3); Ops != 0; --Ops) {
      size_t At = Rng.below(T.size() + 1);
      const std::string &Other = Seeds[Rng.below(Seeds.size())];
      switch (Rng.below(8)) {
      case 0: // Bit flip.
        if (At < T.size())
          T[At] = static_cast<char>(T[At] ^ (1u << Rng.below(8)));
        break;
      case 1: // Byte replacement from the format's alphabet.
        if (At < T.size())
          T[At] = Alphabet[Rng.below(Alphabet.size())];
        break;
      case 2: // Truncation.
        T.resize(At);
        break;
      case 3: // Deletion of a short range.
        T.erase(At, Rng.below(16));
        break;
      case 4: { // Splice: this prefix, another seed's suffix from a
                // nearby offset.
        size_t From = std::min(Other.size(), At + Rng.below(9));
        From = From >= 4 ? From - 4 : 0;
        T = T.substr(0, At) + Other.substr(From);
        break;
      }
      case 5: { // Line move: reorders members, elements or steps.
        auto [Begin, End] = lineOf(T, At);
        std::string Line = T.substr(Begin, End - Begin);
        T.erase(Begin, End - Begin);
        T.insert(lineOf(T, Rng.below(T.size() + 1)).first, Line);
        break;
      }
      case 6: { // Line splice: a whole line of another seed.
        auto [Begin, End] = lineOf(Other, Rng.below(Other.size()));
        T.insert(lineOf(T, At).first, Other.substr(Begin, End - Begin));
        break;
      }
      default: // Insertion of a chunk of another seed.
        T.insert(At, Other.substr(Rng.below(Other.size()), Rng.below(48)));
        break;
      }
    }
    return T;
  }

private:
  /// The bounds of the line of \p S around offset \p At, newline included.
  static std::pair<size_t, size_t> lineOf(const std::string &S, size_t At) {
    size_t Begin = At == 0 ? std::string::npos : S.rfind('\n', At - 1);
    size_t End = S.find('\n', At);
    return {Begin == std::string::npos ? 0 : Begin + 1,
            End == std::string::npos ? S.size() : End + 1};
  }

  std::vector<std::string> Seeds;
  std::string Alphabet;
  SplitMix64 Rng;
};

} // namespace testing_support
} // namespace semcomm

#endif // SEMCOMM_TESTS_TEXTMUTATOR_H
