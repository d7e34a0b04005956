//===- moore/Lexer.cpp - SystemVerilog lexer -----------------------------------===//

#include "moore/Lexer.h"

#include <cctype>

using namespace llhd;
using namespace llhd::moore;

namespace {

struct LexState {
  const std::string &Src;
  size_t Pos = 0;
  unsigned Line = 1;
  std::string &Error;

  char peek(unsigned Ahead = 0) const {
    return Pos + Ahead < Src.size() ? Src[Pos + Ahead] : '\0';
  }
  char get() {
    char C = peek();
    if (C == '\n')
      ++Line;
    ++Pos;
    return C;
  }
  bool eof() const { return Pos >= Src.size(); }

  void skipTrivia() {
    for (;;) {
      char C = peek();
      if (std::isspace(static_cast<unsigned char>(C))) {
        get();
        continue;
      }
      if (C == '/' && peek(1) == '/') {
        while (!eof() && peek() != '\n')
          get();
        continue;
      }
      if (C == '/' && peek(1) == '*') {
        get();
        get();
        while (!eof() && !(peek() == '*' && peek(1) == '/'))
          get();
        if (!eof()) {
          get();
          get();
        }
        continue;
      }
      // `timescale and other directives: skip the line.
      if (C == '`') {
        while (!eof() && peek() != '\n')
          get();
        continue;
      }
      return;
    }
  }

  /// Digits in the given radix (with '_' separators); also x/z mapped to 0.
  std::string lexDigits(unsigned Radix) {
    std::string S;
    for (;;) {
      char C = peek();
      if (C == '_') {
        get();
        continue;
      }
      bool Ok = false;
      if (Radix == 2)
        Ok = C == '0' || C == '1';
      else if (Radix == 8)
        Ok = C >= '0' && C <= '7';
      else if (Radix == 10)
        Ok = std::isdigit(static_cast<unsigned char>(C));
      else
        Ok = std::isxdigit(static_cast<unsigned char>(C));
      if (!Ok)
        break;
      S += get();
    }
    return S;
  }

  /// The widest sized literal: 2^24 bits, the size limit most
  /// SystemVerilog tools share.
  static constexpr uint64_t MaxLiteralWidth = 1u << 24;

  Token lexNumber() {
    Token T;
    T.Kind = Tok::Number;
    T.Line = Line;
    std::string Digits = lexDigits(10);
    unsigned Width = 32;
    bool Sized = false;
    unsigned Radix = 10;
    if (peek() == '\'') {
      get();
      if (!Digits.empty()) {
        // A size past MaxLiteralWidth is a diagnostic, not an
        // allocation of that many bits.
        uint64_t W = 0;
        for (char C : Digits)
          if ((W = W * 10 + unsigned(C - '0')) > MaxLiteralWidth)
            break;
        if (W > MaxLiteralWidth) {
          Error = "line " + std::to_string(Line) + ": literal width '" +
                  Digits + "' is out of range";
          return T;
        }
        Width = static_cast<unsigned>(W);
        Sized = true;
      }
      char B = std::tolower(get());
      if (B == 'h')
        Radix = 16;
      else if (B == 'b')
        Radix = 2;
      else if (B == 'o')
        Radix = 8;
      else if (B == 'd')
        Radix = 10;
      else if (B == '0' || B == '1') {
        // '0 / '1 fill literals.
        T.Num = B == '0' ? IntValue(1, 0) : IntValue::allOnes(1);
        T.Sized = false;
        T.Text = std::string("'") + B;
        return T;
      } else {
        Error = "line " + std::to_string(Line) + ": bad based literal";
        return T;
      }
      Digits = lexDigits(Radix);
    }
    // Parse digits in radix into a wide value, then truncate.
    IntValue V(std::max(Width, 64u), 0);
    IntValue R(std::max(Width, 64u), Radix);
    for (char C : Digits) {
      unsigned D;
      if (C >= '0' && C <= '9')
        D = C - '0';
      else if (C >= 'a' && C <= 'f')
        D = C - 'a' + 10;
      else
        D = C - 'A' + 10;
      V = V.mul(R).add(IntValue(std::max(Width, 64u), D));
    }
    T.Num = V.zextOrTrunc(Width);
    T.Sized = Sized;
    T.Text = Digits;
    return T;
  }
};

} // namespace

std::vector<Token> llhd::moore::lexSystemVerilog(const std::string &Src,
                                                 std::string &Error) {
  std::vector<Token> Out;
  LexState S{Src, 0, 1, Error};
  static const char *MultiPunct[] = {
      "<<<", ">>>", "<=", ">=", "==", "!=", "&&", "||", "<<", ">>",
      "+=", "-=", "++", "--", "->", "::", "+:",
  };
  while (true) {
    S.skipTrivia();
    if (S.eof())
      break;
    char C = S.peek();
    Token T;
    T.Line = S.Line;
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_' ||
        C == '$') {
      T.Kind = Tok::Ident;
      while (std::isalnum(static_cast<unsigned char>(S.peek())) ||
             S.peek() == '_' || S.peek() == '$')
        T.Text += S.get();
      Out.push_back(std::move(T));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C)) || C == '\'') {
      Out.push_back(S.lexNumber());
      if (!Error.empty())
        return Out;
      continue;
    }
    if (C == '"') {
      S.get();
      T.Kind = Tok::String;
      while (!S.eof() && S.peek() != '"')
        T.Text += S.get();
      if (!S.eof())
        S.get();
      Out.push_back(std::move(T));
      continue;
    }
    // Punctuation: longest match first.
    T.Kind = Tok::Punct;
    bool Matched = false;
    for (const char *P : MultiPunct) {
      size_t L = std::char_traits<char>::length(P);
      if (S.Src.compare(S.Pos, L, P) == 0) {
        T.Text = P;
        for (size_t I = 0; I != L; ++I)
          S.get();
        Matched = true;
        break;
      }
    }
    if (!Matched)
      T.Text = std::string(1, S.get());
    Out.push_back(std::move(T));
  }
  Token E;
  E.Kind = Tok::Eof;
  E.Line = S.Line;
  Out.push_back(E);
  return Out;
}
