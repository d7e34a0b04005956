//===- tools/llhd-opt.cpp - Pipeline driver ----------------------------------===//
//
// The llhd-opt tool: parses an LLHD assembly file (or stdin), assembles a
// pass pipeline from a string (see passes/PassManager.h), runs it, and
// prints the transformed module. The counterpart of LLVM's `opt` for the
// reproduction's pass infrastructure.
//
//   llhd-opt design.llhd -p 'inline,unroll,mem2reg,std<fixpoint>'
//   llhd-opt design.llhd --lower --threads=4 --stats
//   echo '...' | llhd-opt - -p 'std<fixpoint>' --verify-each
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "asm/Printer.h"
#include "ir/Verifier.h"
#include "passes/Passes.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace llhd;

namespace {

void printUsage() {
  fprintf(stderr,
          "usage: llhd-opt [options] <file.llhd | ->\n"
          "\n"
          "  -p, --pipeline=<str>  pass pipeline to run (default: none)\n"
          "  --lower               run the full behavioural->structural\n"
          "                        lowering (Figure 4) instead of -p\n"
          "  --threads=<n>         worker threads for the per-unit\n"
          "                        schedule (0 = all cores); passes that\n"
          "                        read other units (inline) run in a\n"
          "                        serial prefix phase first\n"
          "  --verify-each         verify the IR after every pass\n"
          "  --stats               print per-pass and analysis-cache\n"
          "                        statistics to stderr\n"
          "  --no-output           suppress the module printout\n"
          "  --list-passes         list registered passes and sets\n");
}

void listPasses() {
  printf("passes:\n");
  for (const PassInfo &P : allPasses())
    printf("  %-10s %s\n", P.Name, P.Description);
  printf("sets:\n");
  for (const auto &KV : passSets()) {
    std::string Members;
    for (const std::string &M : KV.second)
      Members += (Members.empty() ? "" : ",") + M;
    printf("  %-10s = %s (run to fixpoint)\n", KV.first.c_str(),
           Members.c_str());
  }
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Pipeline, File;
  bool Lower = false, VerifyEach = false, Stats = false, NoOutput = false;
  unsigned Threads = 1;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "-h" || A == "--help") {
      printUsage();
      return 0;
    } else if (A == "--list-passes") {
      listPasses();
      return 0;
    } else if (A == "-p" && I + 1 < Argc) {
      Pipeline = Argv[++I];
    } else if (A.rfind("--pipeline=", 0) == 0) {
      Pipeline = A.substr(strlen("--pipeline="));
    } else if (A.rfind("--threads=", 0) == 0) {
      // A whole number: digits first (strtoull would wrap "-1"), in
      // range, nothing trailing.
      const char *V = A.c_str() + strlen("--threads=");
      char *End = nullptr;
      unsigned long long N = strtoull(V, &End, 10);
      Threads = unsigned(N);
      if (!isdigit(static_cast<unsigned char>(*V)) || *End != '\0' ||
          Threads != N) {
        fprintf(stderr, "llhd-opt: invalid value in '%s'\n", A.c_str());
        return 1;
      }
    } else if (A == "--lower") {
      Lower = true;
    } else if (A == "--verify-each") {
      VerifyEach = true;
    } else if (A == "--stats") {
      Stats = true;
    } else if (A == "--no-output") {
      NoOutput = true;
    } else if (!A.empty() && A[0] == '-' && A != "-") {
      fprintf(stderr, "llhd-opt: unknown option '%s'\n", A.c_str());
      printUsage();
      return 1;
    } else if (File.empty()) {
      File = A;
    } else {
      fprintf(stderr, "llhd-opt: more than one input file\n");
      return 1;
    }
  }
  if (File.empty()) {
    printUsage();
    return 1;
  }

  std::string Src;
  if (File == "-") {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Src = SS.str();
  } else {
    std::ifstream In(File);
    if (!In) {
      fprintf(stderr, "llhd-opt: cannot open '%s'\n", File.c_str());
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Src = SS.str();
  }

  Context Ctx;
  Module M(Ctx, File);
  ParseResult PR = parseModule(Src, M);
  if (!PR.Ok) {
    fprintf(stderr, "llhd-opt: parse error: %s\n", PR.Error.c_str());
    return 1;
  }

  PassStatistics PassStats;
  UnitAnalysisManager::Stats AStats;
  std::vector<std::string> VerifyErrors;

  if (Lower) {
    LoweringOptions Opts;
    Opts.Threads = Threads;
    Opts.VerifyEach = VerifyEach;
    LoweringResult R = lowerToStructural(M, Opts);
    for (const std::string &N : R.Notes)
      fprintf(stderr, "note: %s\n", N.c_str());
    for (const std::string &Rej : R.Rejected)
      fprintf(stderr, "rejected: %s\n", Rej.c_str());
    PassStats = R.Stats;
    AStats = R.AnalysisStats;
  } else if (!Pipeline.empty()) {
    ModulePassManagerOptions Opts;
    Opts.Unit.VerifyEach = VerifyEach;
    Opts.Threads = Threads;
    ModulePassManager MPM(Opts);
    std::string Error;
    if (!MPM.addPipeline(Pipeline, &Error)) {
      fprintf(stderr, "llhd-opt: bad pipeline: %s\n", Error.c_str());
      return 1;
    }
    MPM.run(M);
    PassStats = MPM.statistics();
    AStats = MPM.analysisStatistics();
    VerifyErrors = MPM.verifyErrors();
  }

  for (const std::string &E : VerifyErrors)
    fprintf(stderr, "verify: %s\n", E.c_str());

  if (Stats) {
    fprintf(stderr, "%s", PassStats.toString().c_str());
    fprintf(stderr,
            "analysis cache: %llu hits / %llu misses (%.0f%% hit rate), "
            "%llu invalidations\n",
            (unsigned long long)AStats.Hits,
            (unsigned long long)AStats.Misses, AStats.hitRate() * 100.0,
            (unsigned long long)AStats.Invalidations);
  }

  std::vector<std::string> Errors;
  if (!verifyModule(M, Errors)) {
    for (const std::string &E : Errors)
      fprintf(stderr, "verifier: %s\n", E.c_str());
    return 1;
  }

  if (!NoOutput)
    printf("%s", printModule(M).c_str());
  return VerifyErrors.empty() ? 0 : 1;
}
