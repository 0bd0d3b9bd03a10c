//===- support/Json.h - Minimal JSON DOM, writer and parser -----*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately small JSON value type used by the verification driver's
/// results report (and, later, by the BENCH_*.json emitters). Design goals,
/// in order: exact round-tripping of our own output (object key order is
/// preserved; integers print as integers; doubles print with 17 significant
/// digits), a tiny footprint, and zero external dependencies. It is not a
/// general-purpose validating parser — inputs it rejects yield nullopt, not
/// diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_SUPPORT_JSON_H
#define SEMCOMM_SUPPORT_JSON_H

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace semcomm {
namespace json {

/// One JSON value. Arrays and objects own their children; objects preserve
/// insertion order so dump(parse(dump(x))) == dump(x).
class Value {
public:
  enum class Kind : uint8_t { Null, Bool, Int, Double, String, Array, Object };

  Value() : K(Kind::Null) {}
  static Value null() { return Value(); }
  static Value boolean(bool B) {
    Value V;
    V.K = Kind::Bool;
    V.B = B;
    return V;
  }
  static Value integer(int64_t N) {
    Value V;
    V.K = Kind::Int;
    V.I = N;
    return V;
  }
  static Value number(double D) {
    Value V;
    V.K = Kind::Double;
    V.D = D;
    return V;
  }
  static Value string(std::string S) {
    Value V;
    V.K = Kind::String;
    V.S = std::move(S);
    return V;
  }
  static Value array() {
    Value V;
    V.K = Kind::Array;
    return V;
  }
  static Value object() {
    Value V;
    V.K = Kind::Object;
    return V;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isInt() const { return K == Kind::Int; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return B; }
  int64_t asInt() const { return K == Kind::Double ? (int64_t)D : I; }
  double asDouble() const { return K == Kind::Int ? (double)I : D; }
  const std::string &asString() const { return S; }

  // Array interface.
  size_t size() const { return Elems.size(); }
  const Value &at(size_t Idx) const { return Elems[Idx]; }
  void push(Value V) { Elems.push_back(std::move(V)); }

  // Object interface.
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Members;
  }
  void set(const std::string &Key, Value V) {
    for (auto &M : Members)
      if (M.first == Key) {
        M.second = std::move(V);
        return;
      }
    Members.emplace_back(Key, std::move(V));
  }
  /// Member lookup; null sentinel when absent (distinguish with find()).
  const Value *find(const std::string &Key) const {
    for (const auto &M : Members)
      if (M.first == Key)
        return &M.second;
    return nullptr;
  }
  const Value &operator[](const std::string &Key) const {
    static const Value Null;
    const Value *V = find(Key);
    return V ? *V : Null;
  }

  /// Serializes. \p Indent < 0 yields the compact single-line form;
  /// otherwise a pretty form indented by \p Indent spaces per level.
  std::string dump(int Indent = -1) const {
    std::string Out;
    write(Out, Indent, 0);
    return Out;
  }

  /// Parses one JSON document (surrounded by optional whitespace only).
  static std::optional<Value> parse(const std::string &Text) {
    Parser P{Text.c_str(), Text.c_str() + Text.size()};
    Value V;
    if (!P.parseValue(V))
      return std::nullopt;
    P.skipSpace();
    if (P.Cur != P.End)
      return std::nullopt;
    return V;
  }

  friend bool operator==(const Value &A, const Value &B) {
    if (A.K != B.K)
      return false;
    switch (A.K) {
    case Kind::Null:
      return true;
    case Kind::Bool:
      return A.B == B.B;
    case Kind::Int:
      return A.I == B.I;
    case Kind::Double:
      return A.D == B.D;
    case Kind::String:
      return A.S == B.S;
    case Kind::Array:
      return A.Elems == B.Elems;
    case Kind::Object:
      return A.Members == B.Members;
    }
    return false;
  }
  friend bool operator!=(const Value &A, const Value &B) { return !(A == B); }

private:
  static void writeEscaped(std::string &Out, const std::string &S) {
    Out += '"';
    for (char C : S) {
      switch (C) {
      case '"':
        Out += "\\\"";
        break;
      case '\\':
        Out += "\\\\";
        break;
      case '\n':
        Out += "\\n";
        break;
      case '\t':
        Out += "\\t";
        break;
      case '\r':
        Out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(C) < 0x20) {
          char Buf[8];
          std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
          Out += Buf;
        } else {
          Out += C;
        }
      }
    }
    Out += '"';
  }

  void write(std::string &Out, int Indent, int Depth) const {
    auto newline = [&](int D) {
      if (Indent < 0)
        return;
      Out += '\n';
      Out.append(static_cast<size_t>(Indent) * D, ' ');
    };
    switch (K) {
    case Kind::Null:
      Out += "null";
      break;
    case Kind::Bool:
      Out += B ? "true" : "false";
      break;
    case Kind::Int: {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(I));
      Out += Buf;
      break;
    }
    case Kind::Double: {
      char Buf[40];
      std::snprintf(Buf, sizeof(Buf), "%.17g", D);
      // Keep a numeric marker so the value re-parses as a double.
      if (!std::strpbrk(Buf, ".eE"))
        std::strcat(Buf, ".0");
      Out += Buf;
      break;
    }
    case Kind::String:
      writeEscaped(Out, S);
      break;
    case Kind::Array:
      if (Elems.empty()) {
        Out += "[]";
        break;
      }
      Out += '[';
      for (size_t Idx = 0; Idx != Elems.size(); ++Idx) {
        if (Idx)
          Out += Indent < 0 ? "," : ",";
        newline(Depth + 1);
        Elems[Idx].write(Out, Indent, Depth + 1);
      }
      newline(Depth);
      Out += ']';
      break;
    case Kind::Object:
      if (Members.empty()) {
        Out += "{}";
        break;
      }
      Out += '{';
      for (size_t Idx = 0; Idx != Members.size(); ++Idx) {
        if (Idx)
          Out += Indent < 0 ? "," : ",";
        newline(Depth + 1);
        writeEscaped(Out, Members[Idx].first);
        Out += Indent < 0 ? ":" : ": ";
        Members[Idx].second.write(Out, Indent, Depth + 1);
      }
      newline(Depth);
      Out += '}';
      break;
    }
  }

  struct Parser {
    const char *Cur, *End;

    void skipSpace() {
      while (Cur != End && (*Cur == ' ' || *Cur == '\t' || *Cur == '\n' ||
                            *Cur == '\r'))
        ++Cur;
    }

    bool literal(const char *Lit) {
      size_t N = std::strlen(Lit);
      if (static_cast<size_t>(End - Cur) < N ||
          std::strncmp(Cur, Lit, N) != 0)
        return false;
      Cur += N;
      return true;
    }

    bool parseString(std::string &Out) {
      if (Cur == End || *Cur != '"')
        return false;
      ++Cur;
      Out.clear();
      while (Cur != End && *Cur != '"') {
        char C = *Cur++;
        if (C != '\\') {
          Out += C;
          continue;
        }
        if (Cur == End)
          return false;
        char E = *Cur++;
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'n':
          Out += '\n';
          break;
        case 't':
          Out += '\t';
          break;
        case 'r':
          Out += '\r';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'u': {
          if (End - Cur < 4)
            return false;
          unsigned Code = 0;
          for (int I = 0; I != 4; ++I) {
            char H = *Cur++;
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code |= H - '0';
            else if (H >= 'a' && H <= 'f')
              Code |= H - 'a' + 10;
            else if (H >= 'A' && H <= 'F')
              Code |= H - 'A' + 10;
            else
              return false;
          }
          // Our writer only emits \u00XX control escapes; decode the
          // Latin-1 range and reject the rest rather than mis-decode.
          if (Code > 0xFF)
            return false;
          Out += static_cast<char>(Code);
          break;
        }
        default:
          return false;
        }
      }
      if (Cur == End)
        return false;
      ++Cur; // closing quote
      return true;
    }

    bool digits() {
      const char *Start = Cur;
      while (Cur != End && std::isdigit(static_cast<unsigned char>(*Cur)))
        ++Cur;
      return Cur != Start;
    }

    // Strict JSON number grammar: -?int(.frac)?([eE][+-]?exp)?. Anything
    // else must fail the parse rather than convert to a wrong value.
    bool parseNumber(Value &Out) {
      const char *Start = Cur;
      if (Cur != End && *Cur == '-')
        ++Cur;
      if (!digits())
        return false;
      bool IsDouble = false;
      if (Cur != End && *Cur == '.') {
        IsDouble = true;
        ++Cur;
        if (!digits())
          return false;
      }
      if (Cur != End && (*Cur == 'e' || *Cur == 'E')) {
        IsDouble = true;
        ++Cur;
        if (Cur != End && (*Cur == '+' || *Cur == '-'))
          ++Cur;
        if (!digits())
          return false;
      }
      // A literal that does not fit is rejected, never saturated: an
      // integer outside int64 or a number past the double range.
      std::string Num(Start, Cur);
      if (IsDouble) {
        double D = std::strtod(Num.c_str(), nullptr);
        if (std::isinf(D))
          return false;
        Out = Value::number(D);
      } else {
        errno = 0;
        long long N = std::strtoll(Num.c_str(), nullptr, 10);
        if (errno == ERANGE)
          return false;
        Out = Value::integer(static_cast<int64_t>(N));
      }
      return true;
    }

    bool parseValue(Value &Out) {
      skipSpace();
      if (Cur == End)
        return false;
      switch (*Cur) {
      case 'n':
        return literal("null") ? (Out = Value::null(), true) : false;
      case 't':
        return literal("true") ? (Out = Value::boolean(true), true) : false;
      case 'f':
        return literal("false") ? (Out = Value::boolean(false), true) : false;
      case '"': {
        std::string S;
        if (!parseString(S))
          return false;
        Out = Value::string(std::move(S));
        return true;
      }
      case '[': {
        ++Cur;
        Out = Value::array();
        skipSpace();
        if (Cur != End && *Cur == ']') {
          ++Cur;
          return true;
        }
        for (;;) {
          Value Elem;
          if (!parseValue(Elem))
            return false;
          Out.push(std::move(Elem));
          skipSpace();
          if (Cur == End)
            return false;
          if (*Cur == ',') {
            ++Cur;
            continue;
          }
          if (*Cur == ']') {
            ++Cur;
            return true;
          }
          return false;
        }
      }
      case '{': {
        ++Cur;
        Out = Value::object();
        skipSpace();
        if (Cur != End && *Cur == '}') {
          ++Cur;
          return true;
        }
        for (;;) {
          skipSpace();
          std::string Key;
          if (!parseString(Key))
            return false;
          skipSpace();
          if (Cur == End || *Cur != ':')
            return false;
          ++Cur;
          Value Member;
          if (!parseValue(Member))
            return false;
          Out.set(Key, std::move(Member));
          skipSpace();
          if (Cur == End)
            return false;
          if (*Cur == ',') {
            ++Cur;
            continue;
          }
          if (*Cur == '}') {
            ++Cur;
            return true;
          }
          return false;
        }
      }
      default:
        return parseNumber(Out);
      }
    }
  };

  Kind K = Kind::Null;
  bool B = false;
  int64_t I = 0;
  double D = 0;
  std::string S;
  std::vector<Value> Elems;
  std::vector<std::pair<std::string, Value>> Members;
};

} // namespace json
} // namespace semcomm

#endif // SEMCOMM_SUPPORT_JSON_H
