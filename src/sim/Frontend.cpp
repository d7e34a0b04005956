//===- sim/Frontend.cpp - Command-line design input ----------------------===//

#include "sim/Frontend.h"
#include "asm/Parser.h"
#include "ir/Verifier.h"
#include "moore/Compiler.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>

using namespace llhd;

bool DesignSource::read() {
  if (File == "-") {
    Src.assign(std::istreambuf_iterator<char>(std::cin),
               std::istreambuf_iterator<char>());
  } else {
    std::ifstream In(File, std::ios::binary);
    if (!In) {
      fprintf(stderr, "%s: cannot open '%s'\n", Tool, File.c_str());
      return false;
    }
    Src.assign(std::istreambuf_iterator<char>(In),
               std::istreambuf_iterator<char>());
  }
  if (Lang == Language::ByExtension) {
    auto endsWith = [&](const std::string &Suffix) {
      return File.size() >= Suffix.size() &&
             File.compare(File.size() - Suffix.size(), Suffix.size(),
                          Suffix) == 0;
    };
    Lang = endsWith(".sv") || endsWith(".v") ? Language::Sv : Language::Llhd;
  }
  return true;
}

std::unique_ptr<Module> DesignSource::build(const std::string &Name,
                                            std::string &UnitTop,
                                            bool Quiet) {
  auto M = std::make_unique<Module>(Ctx, Name);
  std::string Error;
  UnitTop.clear();
  if (Lang == Language::Sv) {
    if (Top.empty())
      Top = moore::detectTopModule(Src, Error);
    if (!Top.empty()) {
      moore::CompileResult R = moore::compileSystemVerilog(Src, Top, *M);
      Error = R.Error;
      UnitTop = R.Ok ? R.TopUnit : "";
    }
  } else {
    ParseResult R = parseModule(Src, *M);
    Error = R.Error;
    UnitTop = !R.Ok ? "" : Top.empty() ? findTopUnit(*M, Error) : Top;
  }
  if (UnitTop.empty()) {
    if (!Quiet)
      fprintf(stderr, "%s: %s\n", Tool, Error.c_str());
    return nullptr;
  }
  // The engines run only verified IR: an op its unit kind forbids (a
  // `ret` in a process, a `prb` in a function) is an input error.
  std::vector<std::string> Errors;
  if (verifyModule(*M, Errors))
    return M;
  if (!Quiet)
    for (const std::string &E : Errors)
      fprintf(stderr, "%s: %s\n", Tool, E.c_str());
  UnitTop.clear();
  return nullptr;
}

bool DesignSource::elaborate(const std::string &Name, Elaborated &E,
                             bool Quiet) {
  E.M = build(Name, E.Top, Quiet);
  if (!E.M)
    return false;
  E.D = llhd::elaborate(*E.M, E.Top);
  if (!E.D.ok() && !Quiet)
    fprintf(stderr, "%s: %s\n", Tool, E.D.Error.c_str());
  return E.D.ok();
}
