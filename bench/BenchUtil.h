//===- bench/BenchUtil.h - Shared bench helpers ------------------*- C++ -*-===//

#ifndef LLHD_BENCH_BENCHUTIL_H
#define LLHD_BENCH_BENCHUTIL_H

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace llhd_bench {

/// Wall-clock seconds of one callable.
template <typename Fn> double timeIt(Fn &&F) {
  auto Start = std::chrono::steady_clock::now();
  F();
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

/// Parses "--scale=<float>" style flags. A value that is not a finite
/// number is a usage error: the bench exits 64.
inline double argFloat(int Argc, char **Argv, const std::string &Name,
                       double Default) {
  std::string Prefix = "--" + Name + "=";
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind(Prefix, 0) != 0)
      continue;
    const char *Text = Argv[I] + Prefix.size();
    char *End = nullptr;
    double V = std::strtod(Text, &End);
    if (End == Text || *End != '\0' || !std::isfinite(V)) {
      std::fprintf(stderr, "%s: --%s expects a number, got '%s'\n", Argv[0],
                   Name.c_str(), Text);
      std::exit(64);
    }
    return V;
  }
  return Default;
}

/// Parses "--name=<string>" style flags.
inline std::string argStr(int Argc, char **Argv, const std::string &Name,
                          const std::string &Default) {
  std::string Prefix = "--" + Name + "=";
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind(Prefix, 0) == 0)
      return A.substr(Prefix.size());
  }
  return Default;
}

inline bool argFlag(int Argc, char **Argv, const std::string &Name) {
  std::string Flag = "--" + Name;
  for (int I = 1; I < Argc; ++I)
    if (Flag == Argv[I])
      return true;
  return false;
}

/// Counts non-empty lines (the "LoC" metric of Tables 2 and 4).
inline unsigned locOf(const std::string &Src) {
  unsigned N = 0;
  bool NonEmpty = false;
  for (char C : Src) {
    if (C == '\n') {
      N += NonEmpty;
      NonEmpty = false;
    } else if (C != ' ' && C != '\t') {
      NonEmpty = true;
    }
  }
  return N + NonEmpty;
}

} // namespace llhd_bench

#endif // LLHD_BENCH_BENCHUTIL_H
