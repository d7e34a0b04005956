//===- bench/ablation_blaze.cpp - Engine design ablation ----------------------===//
//
// Ablation for the simulator design choices (§6.1): compares, on one
// mid-size design, the reference interpreter and the four corners of
// Blaze's {optimisation pipeline} x {native codegen} grid. Shows where
// the speedup comes from: the LIR optimisations, the JIT-compiled native
// code, or both.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "moore/Compiler.h"
#include "sim/Interp.h"

#include <cstdio>
#include <string>

using namespace llhd;
using namespace llhd_bench;

int main(int argc, char **argv) {
  double Scale = argFloat(argc, argv, "scale", 0.002);
  designs::DesignInfo D = designs::designByKey("rr_arbiter", Scale);

  printf("Ablation: engine design points on %s (%llu cycles)\n\n",
         D.PaperName.c_str(),
         static_cast<unsigned long long>(D.Iterations));
  printf("%-34s %10s %10s\n", "Engine", "Time [s]", "Speedup");

  Context Ctx;
  SimOptions Opts;
  Opts.TraceMode = Trace::Mode::Hash;

  Module M1(Ctx, "m1");
  auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M1);
  if (!R.Ok)
    return 1;
  Design Dn = elaborate(M1, R.TopUnit);
  InterpSim Int(std::move(Dn), Opts);
  double TInt = timeIt([&] { Int.run(); });
  printf("%-34s %10.3f %9.1fx\n", "Interp (reference LIR interpreter)",
         TInt, 1.0);

  // The four corners of the Blaze configuration grid:
  // {optimisation pipeline off/on} x {native codegen off/on}.
  struct Config {
    const char *Name;
    bool Optimize;
    jit::JitOptions::Mode Jit;
  };
  const Config Configs[] = {
      {"Blaze, no opt, LIR interp", false, jit::JitOptions::Mode::Off},
      {"Blaze, CF/IS/CSE/DCE, LIR interp", true, jit::JitOptions::Mode::Off},
      {"Blaze, no opt, native codegen", false, jit::JitOptions::Mode::On},
      {"Blaze, CF/IS/CSE/DCE + native", true, jit::JitOptions::Mode::On},
  };
  bool TracesMatch = true;
  int Mi = 2;
  for (const Config &C : Configs) {
    Module M(Ctx, "m" + std::to_string(Mi++));
    (void)moore::compileSystemVerilog(D.Source, D.TopModule, M);
    BlazeSim::BlazeOptions BOpts;
    static_cast<SimOptions &>(BOpts) = Opts;
    BOpts.Optimize = C.Optimize;
    BOpts.Jit.M = C.Jit;
    BlazeSim Blaze(M, R.TopUnit, BOpts);
    double T = timeIt([&] { Blaze.run(); });
    printf("%-34s %10.3f %9.1fx\n", C.Name, T, TInt / T);
    TracesMatch &= Int.trace().digest() == Blaze.trace().digest();
  }

  printf("\nTraces: %s\n", TracesMatch ? "all equal" : "MISMATCH");
  return TracesMatch ? 0 : 1;
}
