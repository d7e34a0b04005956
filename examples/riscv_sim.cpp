//===- examples/riscv_sim.cpp - RISC-V core on both engines --------------===//
//
// Domain-scale example: the RV32I-subset core from the Table 2 design
// suite (it computes 1+2+...+100 = 5050 in a software loop) is compiled
// from SystemVerilog and run on both engines; the traces must agree
// and the architectural result register must read 5050.
//
//===----------------------------------------------------------------------===//

#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "moore/Compiler.h"
#include "sim/Interp.h"

#include <chrono>
#include <cstdio>

using namespace llhd;

int main() {
  designs::DesignInfo D = designs::designByKey("riscv", 0.0005);
  printf("RISC-V RV32I-subset core, %llu cycles\n\n",
         static_cast<unsigned long long>(D.Iterations));

  Context Ctx;
  auto runEngine = [&](const char *Name, auto MakeAndRun) {
    auto Start = std::chrono::steady_clock::now();
    auto [Digest, Asserts] = MakeAndRun();
    double Secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    printf("%-22s %8.3f s   trace digest %016llx   asserts failed %llu\n",
           Name, Secs, static_cast<unsigned long long>(Digest),
           static_cast<unsigned long long>(Asserts));
    return Digest;
  };

  Module M1(Ctx, "m1");
  auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M1);
  if (!R.Ok) {
    printf("moore: %s\n", R.Error.c_str());
    return 1;
  }
  uint64_t D1 = runEngine("LLHD-Sim (Interp)", [&] {
    InterpSim Sim(elaborate(M1, R.TopUnit));
    SimStats St = Sim.run();
    return std::make_pair(Sim.trace().digest(), St.AssertFailures);
  });
  Module M2(Ctx, "m2");
  (void)moore::compileSystemVerilog(D.Source, D.TopModule, M2);
  uint64_t D2 = runEngine("LLHD-Blaze (native)", [&] {
    BlazeSim Sim(M2, R.TopUnit);
    SimStats St = Sim.run();
    return std::make_pair(Sim.trace().digest(), St.AssertFailures);
  });

  bool Match = D1 == D2;
  printf("\ntraces %s; the testbench itself asserts x10 == 5050\n",
         Match ? "match across both engines" : "MISMATCH");
  return Match ? 0 : 1;
}
