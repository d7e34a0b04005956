//===- tools/llhd-lint.cpp - Static design lint driver -------------------===//
//
// The llhd-lint tool: static analysis of an elaborated design, no
// simulation. Reads LLHD assembly (or SystemVerilog through the Moore
// frontend), elaborates, builds the connectivity graph and runs the
// full check suite (src/lint/).
//
//   llhd-lint design.llhd                      # all checks, default severities
//   llhd-lint design.sv --top=cpu -Werror      # promote warnings
//   llhd-lint design.llhd --waivers=lint.waive # suppress known findings
//   llhd-lint --list-checks                    # the check catalog
//
// Exit codes: 0 clean (warnings allowed), 1 error-severity findings,
// 64 usage, 65 frontend error, 66 i/o error.
//
//===----------------------------------------------------------------------===//

#include "analysis/Connectivity.h"
#include "lint/Lint.h"
#include "sim/Frontend.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace llhd;

namespace {

void printUsage() {
  fprintf(stderr,
          "usage: llhd-lint [options] <file.llhd | file.sv | ->\n"
          "\n"
          "  --top=<name>       top entity/module; auto-detected when the\n"
          "                     design has a unique un-instantiated root\n"
          "  --waivers=<file>   waiver file (%s)\n"
          "  -Werror            promote warnings to errors\n"
          "  -Wno-<check-id>    disable one check, e.g. -Wno-never-read\n"
          "  --list-checks      print the check catalog and exit\n"
          "  --dump-connectivity  print the connectivity graph and exit\n"
          "  --sv, --llhd       force the input language (default: by\n"
          "                     file extension; stdin defaults to .llhd)\n"
          "\n"
          "exit codes: 0 clean, 1 error findings, 64 usage, 65 frontend\n"
          "error, 66 i/o error\n",
          waiverFileFormatHelp());
}

} // namespace

int main(int Argc, char **Argv) {
  DesignSource In("llhd-lint");
  std::string WaiverPath;
  bool DumpConnectivity = false;
  DiagnosticEngine::Options Opts;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "-h" || A == "--help") {
      printUsage();
      return 0;
    } else if (A.rfind("--top=", 0) == 0) {
      In.Top = A.substr(strlen("--top="));
    } else if (A.rfind("--waivers=", 0) == 0) {
      WaiverPath = A.substr(strlen("--waivers="));
    } else if (A == "-Werror" || A == "--werror") {
      Opts.WarningsAsErrors = true;
    } else if (A.rfind("-Wno-", 0) == 0) {
      std::string Id = A.substr(strlen("-Wno-"));
      if (!checkById(Id)) {
        fprintf(stderr, "llhd-lint: unknown check '%s' in '%s'\n", Id.c_str(),
                A.c_str());
        return 64;
      }
      Opts.SeverityOverrides[Id] = Severity::Ignore;
    } else if (A == "--list-checks") {
      for (const CheckInfo &C : allChecks())
        printf("%-12s %-8s %s\n", C.Id, severityName(C.DefaultSev),
               C.Description);
      return 0;
    } else if (A == "--dump-connectivity") {
      DumpConnectivity = true;
    } else if (A == "--sv") {
      In.Lang = DesignSource::Language::Sv;
    } else if (A == "--llhd") {
      In.Lang = DesignSource::Language::Llhd;
    } else if (!A.empty() && A[0] == '-' && A != "-") {
      fprintf(stderr, "llhd-lint: unknown option '%s'\n", A.c_str());
      printUsage();
      return 64;
    } else if (In.File.empty()) {
      In.File = A;
    } else {
      fprintf(stderr, "llhd-lint: more than one input file\n");
      return 64;
    }
  }
  if (In.File.empty()) {
    printUsage();
    return 64;
  }

  if (!In.read())
    return 66;

  DiagnosticEngine DE(Opts);
  if (!WaiverPath.empty()) {
    std::ifstream Waivers(WaiverPath);
    if (!Waivers) {
      fprintf(stderr, "llhd-lint: cannot open waiver file '%s'\n",
              WaiverPath.c_str());
      return 66;
    }
    std::ostringstream SS;
    SS << Waivers.rdbuf();
    std::string Error;
    if (!DE.addWaivers(SS.str(), Error)) {
      fprintf(stderr, "llhd-lint: %s: %s\n", WaiverPath.c_str(),
              Error.c_str());
      return 64;
    }
  }

  Elaborated E;
  if (!In.elaborate(In.File, E))
    return 65;
  const Design &D = E.D;

  DesignAnalysisManager AM;
  if (DumpConnectivity) {
    fputs(AM.get<ConnectivityAnalysis>(D).dump(D).c_str(), stdout);
    return 0;
  }

  lintDesign(D, AM, DE);

  std::string Out = DE.render();
  if (!Out.empty())
    fputs(Out.c_str(), stderr);
  for (const std::string &W : DE.unusedWaivers())
    fprintf(stderr, "llhd-lint: warning: unused waiver '%s' in %s\n",
            W.c_str(), WaiverPath.c_str());
  return DE.failed() ? 1 : 0;
}
