//===- tests/sim/BatchTest.cpp - Batched fleet simulation -----------------===//
//
// Batch-vs-sequential equivalence: a fleet instance running over the
// shared program (sim/Batch.h) must be indistinguishable from a plain
// sequential run with the same seed — same trace digest on every engine,
// byte-identical VCD, same plusarg visibility. On top of that, seeds must
// actually matter ($random diverges across the fleet) and the batch run
// path must stay allocation-free in steady state, AllocGuard-style.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "asm/Printer.h"
#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "moore/Compiler.h"
#include "sim/Batch.h"
#include "sim/Interp.h"
#include "sim/Wave.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

static std::atomic<size_t> GNewCount{0};

void *operator new(std::size_t Sz) {
  ++GNewCount;
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Sz) { return ::operator new(Sz); }
void *operator new(std::size_t Sz, std::align_val_t Al) {
  ++GNewCount;
  if (void *P = std::aligned_alloc(static_cast<size_t>(Al),
                                   (Sz + static_cast<size_t>(Al) - 1) &
                                       ~(static_cast<size_t>(Al) - 1)))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Sz, std::align_val_t Al) {
  return ::operator new(Sz, Al);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

// The nothrow forms too (std::stable_sort's temporary buffer takes one):
// left to the runtime, they would allocate outside the count and be
// freed by the replacements here.
void *operator new(std::size_t Sz, const std::nothrow_t &) noexcept {
  ++GNewCount;
  return std::malloc(Sz ? Sz : 1);
}
void *operator new[](std::size_t Sz, const std::nothrow_t &T) noexcept {
  return ::operator new(Sz, T);
}
void *operator new(std::size_t Sz, std::align_val_t Al,
                   const std::nothrow_t &) noexcept {
  ++GNewCount;
  return std::aligned_alloc(static_cast<size_t>(Al),
                            (Sz + static_cast<size_t>(Al) - 1) &
                                ~(static_cast<size_t>(Al) - 1));
}
void *operator new[](std::size_t Sz, std::align_val_t Al,
                     const std::nothrow_t &T) noexcept {
  return ::operator new(Sz, Al, T);
}
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t,
                     const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::align_val_t,
                       const std::nothrow_t &) noexcept {
  std::free(P);
}

using namespace llhd;

namespace {

/// Seeded-stimulus testbench: every run consumes 16 draws of $random, so
/// the trace digest is a direct function of the seed.
const char *RngSrc = R"(
module rng_tb;
  bit clk;
  bit [31:0] r;
  initial begin
    repeat (16) begin
      clk = ~clk;
      r = $random;
      #1ns;
    end
    $finish;
  end
endmodule
)";

/// Plusarg-sensitive testbench: the driven value depends on both plusarg
/// builtins, so digests witness whether the fleet saw the arguments.
const char *PlusSrc = R"(
module plus_tb;
  bit [31:0] d;
  initial begin
    d = $plusarg$value("depth", 5);
    if ($test$plusargs("bump"))
      d = d + 1;
    #1ns;
    $finish;
  end
endmodule
)";

std::string tmpPath(const char *Stem) {
  return ::testing::TempDir() + "llhd_batch_" + Stem + "_" +
         std::to_string(::getpid());
}

/// Compiles \p Src into a fresh module owned by \p Ctx.
std::unique_ptr<Module> compileSv(Context &Ctx, const char *Src,
                                  const std::string &Name,
                                  std::string &Top) {
  auto M = std::make_unique<Module>(Ctx, Name);
  std::string DetectErr;
  std::string TopModule = moore::detectTopModule(Src, DetectErr);
  EXPECT_FALSE(TopModule.empty()) << DetectErr;
  moore::CompileResult R = moore::compileSystemVerilog(Src, TopModule, *M);
  EXPECT_TRUE(R.Ok) << R.Error;
  if (!R.Ok)
    return nullptr;
  Top = R.TopUnit;
  return M;
}

struct SeqRun {
  uint64_t Digest = 0;
  std::string Vcd;
};

/// One plain (non-batch) run of \p Src on \p Engine ("interp" or
/// "blaze") with \p Opts — the reference a batch instance must be
/// indistinguishable from.
SeqRun runSequential(const char *Src, const std::string &Engine,
                     SimOptions Opts, bool WantVcd = false,
                     bool JitOn = true) {
  SeqRun Out;
  Context Ctx;
  std::string Top;
  auto M = compileSv(Ctx, Src, "seq." + Engine, Top);
  if (!M)
    return Out;
  WaveWriter Wave;
  if (WantVcd)
    Opts.Wave = &Wave;
  if (Engine == "interp") {
    Design D = elaborate(*M, Top);
    EXPECT_TRUE(D.ok()) << D.Error;
    InterpSim Sim(std::move(D), Opts);
    Sim.run();
    Out.Digest = Sim.trace().digest();
  } else {
    BlazeSim::BlazeOptions BO;
    static_cast<SimOptions &>(BO) = Opts;
    BO.Jit.M = JitOn ? jit::JitOptions::Mode::On
                     : jit::JitOptions::Mode::Off;
    BlazeSim Sim(*M, Top, BO);
    EXPECT_TRUE(Sim.valid()) << Sim.error();
    Sim.run();
    Out.Digest = Sim.trace().digest();
  }
  if (WantVcd)
    Out.Vcd = Wave.text();
  return Out;
}

BatchResult runBatchSv(const char *Src, BatchOptions &BO) {
  Context Ctx;
  std::string Top;
  auto M = compileSv(Ctx, Src, "batch." + BO.Engine, Top);
  BatchResult Empty;
  if (!M)
    return Empty;
  return runBatch(*M, Top, BO);
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// An engine configuration a batch runs on: the engine name and, for
/// Blaze, native code on or off.
struct EngineConfig {
  const char *Engine;
  jit::JitOptions::Mode Jit;
};
constexpr EngineConfig EveryEngine[] = {
    {"interp", jit::JitOptions::Mode::On},
    {"blaze", jit::JitOptions::Mode::On},
    {"blaze", jit::JitOptions::Mode::Off},
};

} // namespace

TEST(Batch, InstancePathNaming) {
  EXPECT_EQ(instancePath("out.vcd", 0), "out.vcd.0");
  EXPECT_EQ(instancePath("out.vcd", 12), "out.vcd.12");
}

// The central equivalence claim: instance i of a batch produces the
// digest of a sequential run seeded Base.Seed + i — on Interp and on
// Blaze with the JIT on and off, which therefore also all agree with
// each other.
TEST(Batch, MatchesSequentialOnEveryEngine) {
  const uint64_t BaseSeed = 11;
  const unsigned N = 3;

  std::vector<uint64_t> Expect;
  for (unsigned I = 0; I != N; ++I) {
    SimOptions O;
    O.Seed = BaseSeed + I;
    Expect.push_back(runSequential(RngSrc, "interp", O).Digest);
  }

  for (auto [Engine, Jit] : EveryEngine) {
    BatchOptions BO;
    BO.N = N;
    BO.Jobs = 2; // Exercise the worker pool, not the inline path.
    BO.Engine = Engine;
    BO.Jit.M = Jit;
    BO.Base.Seed = BaseSeed;
    BatchResult R = runBatchSv(RngSrc, BO);
    ASSERT_TRUE(R.Ok) << Engine << ": " << R.Error;
    ASSERT_EQ(R.Instances.size(), N);
    for (unsigned I = 0; I != N; ++I) {
      EXPECT_TRUE(R.Instances[I].Error.empty()) << R.Instances[I].Error;
      EXPECT_EQ(R.Instances[I].Digest, Expect[I])
          << Engine << " instance " << I << " diverges from sequential";
    }
  }
}

// Native code on or off must not be observable in the traces.
TEST(Batch, BlazeJitOffMatchesJitOn) {
  auto run = [&](jit::JitOptions::Mode Mode) {
    BatchOptions BO;
    BO.N = 2;
    BO.Engine = "blaze";
    BO.Jit.M = Mode;
    BO.Base.Seed = 21;
    return runBatchSv(RngSrc, BO);
  };
  BatchResult On = run(jit::JitOptions::Mode::On);
  BatchResult Off = run(jit::JitOptions::Mode::Off);
  ASSERT_TRUE(On.Ok) << On.Error;
  ASSERT_TRUE(Off.Ok) << Off.Error;
  for (unsigned I = 0; I != 2; ++I)
    EXPECT_EQ(On.Instances[I].Digest, Off.Instances[I].Digest);
}

// Seeded stimulus must actually diverge across the fleet: N instances of
// a $random design yield N distinct digests.
TEST(Batch, SeedsDivergeAcrossInstances) {
  BatchOptions BO;
  BO.N = 4;
  BO.Engine = "interp";
  BO.Base.Seed = 100;
  BatchResult R = runBatchSv(RngSrc, BO);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::set<uint64_t> Digests;
  for (const BatchInstance &BI : R.Instances)
    Digests.insert(BI.Digest);
  EXPECT_EQ(Digests.size(), 4u) << "instance seeds did not diverge";
}

// Per-instance VCDs are byte-identical to a sequential run's dump with
// the same seed (and never collide: each instance writes <path>.<i>).
TEST(Batch, VcdByteIdenticalToSequential) {
  std::string Path = tmpPath("vcd");
  BatchOptions BO;
  BO.N = 2;
  BO.Jobs = 2;
  BO.Engine = "blaze";
  BO.Base.Seed = 5;
  BO.VcdPath = Path;
  BatchResult R = runBatchSv(RngSrc, BO);
  ASSERT_TRUE(R.Ok) << R.Error;
  for (unsigned I = 0; I != 2; ++I) {
    SimOptions O;
    O.Seed = 5 + I;
    SeqRun Seq = runSequential(RngSrc, "blaze", O, /*WantVcd=*/true);
    std::string Got = slurp(instancePath(Path, I));
    EXPECT_EQ(Got, Seq.Vcd) << "instance " << I << " VCD differs";
    std::remove(instancePath(Path, I).c_str());
  }
}

// Plusargs are part of the shared base configuration: every instance
// sees them, and they change the trace exactly as in a sequential run.
TEST(Batch, PlusargsReachEveryInstance) {
  BatchOptions BO;
  BO.N = 2;
  BO.Engine = "interp";
  BO.Base.Plusargs = {{"depth", "32"}, {"bump", ""}};
  BatchResult With = runBatchSv(PlusSrc, BO);
  ASSERT_TRUE(With.Ok) << With.Error;

  SimOptions O;
  O.Plusargs = BO.Base.Plusargs;
  uint64_t Seq = runSequential(PlusSrc, "interp", O).Digest;

  BatchOptions BONone;
  BONone.N = 2;
  BONone.Engine = "interp";
  BatchResult Without = runBatchSv(PlusSrc, BONone);
  ASSERT_TRUE(Without.Ok) << Without.Error;

  for (unsigned I = 0; I != 2; ++I) {
    EXPECT_EQ(With.Instances[I].Digest, Seq);
    EXPECT_NE(With.Instances[I].Digest, Without.Instances[I].Digest)
        << "plusargs were not visible to instance " << I;
  }
}

namespace {

/// The AllocGuard scalar counter (see tests/sim/AllocGuardTest.cpp): a
/// 1 GHz clock process plus a rising-edge counter, nothing but <=64-bit
/// scalars on the op path.
const char *CounterSrc = R"(
entity @top () -> () {
  %z1 = const i1 0
  %z32 = const i32 0
  %clk = sig i1 %z1
  %cnt = sig i32 %z32
  inst @clkgen () -> (i1$ %clk)
  inst @counter (i1$ %clk) -> (i32$ %cnt)
}
proc @clkgen () -> (i1$ %clk) {
entry:
  %b0 = const i1 0
  %b1 = const i1 1
  %half = const time 1ns
  br %hi
hi:
  drv i1$ %clk, %b1 after %half
  wait %lo for %half
lo:
  drv i1$ %clk, %b0 after %half
  wait %hi for %half
}
proc @counter (i1$ %clk) -> (i32$ %cnt) {
entry:
  %one = const i32 1
  %d0 = const time 0s
  br %loop
loop:
  wait %tick for %clk
tick:
  %c = prb i1$ %clk
  br %c, %loop, %up
up:
  %v = prb i32$ %cnt
  %vn = add i32 %v, %one
  drv i32$ %cnt, %vn after %d0
  br %loop
}
)";

size_t countBatchAllocs(uint64_t Cycles) {
  Context Ctx;
  Module M(Ctx, "alloc_batch");
  ParseResult R = parseModule(CounterSrc, M);
  EXPECT_TRUE(R.Ok) << R.Error;
  BatchOptions BO;
  BO.N = 2;
  BO.Jobs = 1; // Inline: no thread-spawn allocations in the count.
  BO.Engine = "interp";
  BO.Base.TraceMode = Trace::Mode::Off;
  BO.Base.MaxTime = Time::ns(2 * Cycles);
  size_t Before = GNewCount.load(std::memory_order_relaxed);
  BatchResult Res = runBatch(M, "top", BO);
  size_t Allocs = GNewCount.load(std::memory_order_relaxed) - Before;
  EXPECT_TRUE(Res.Ok) << Res.Error;
  EXPECT_GE(Res.Instances[0].Stats.Steps, Cycles);
  return Allocs;
}

} // namespace

// Doubling the simulated time must not add a single allocation to a
// batch run: program build and per-instance setup are fixed costs, and
// the shared-program op path stays allocation-free in steady state.
TEST(Batch, SteadyStateIsAllocationFree) {
  size_t Short = countBatchAllocs(200);
  size_t Long = countBatchAllocs(400);
  EXPECT_EQ(Short, Long);
}

// The batch smoke the CI ThreadSanitizer job runs: every design of the
// Table 2 suite, four instances on four workers, every engine (Blaze
// with the JIT on and off). The designs are seed-independent, so all four
// instances must agree — any cross-instance interference (a data race on
// the shared program) shows up as a digest mismatch here, or as a TSan
// report in CI.
TEST(Batch, DesignsSuiteSmoke) {
  for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
    Context Ctx;
    Module M(Ctx, D.Key);
    moore::CompileResult R =
        moore::compileSystemVerilog(D.Source, D.TopModule, M);
    ASSERT_TRUE(R.Ok) << D.Key << ": " << R.Error;
    for (auto [Engine, Jit] : EveryEngine) {
      BatchOptions BO;
      BO.N = 4;
      BO.Jobs = 4;
      BO.Engine = Engine;
      BO.Jit.M = Jit;
      BatchResult Res = runBatch(M, R.TopUnit, BO);
      ASSERT_TRUE(Res.Ok) << D.Key << "/" << Engine << ": " << Res.Error;
      for (const BatchInstance &BI : Res.Instances) {
        EXPECT_EQ(BI.Stats.AssertFailures, 0u) << D.Key << "/" << Engine;
        EXPECT_EQ(BI.Digest, Res.Instances[0].Digest)
            << D.Key << "/" << Engine << " instance " << BI.Index;
      }
    }
  }
}

// Blaze's build only reads the caller's module: its in-memory clone
// never registers a use on a source value, not even for a forward
// operand such as the phi's %in below. So threads may build from one
// module at once. A race shows up as a TSan report in CI, or here as a
// changed source or diverging digests.
TEST(Batch, ConcurrentBlazeBuildsShareOneModule) {
  Context Ctx;
  Module M(Ctx, "count");
  ParseResult PR = parseModule(R"(
entity @top () -> () {
  %zero = const i32 0
  %s = sig i32 %zero
  inst @count () -> (i32$ %s)
}
proc @count () -> (i32$ %s) {
entry:
  %zero = const i32 0
  %one = const i32 1
  %ten = const i32 10
  %d = const time 1ns
  br %loop
loop:
  %i = phi i32 [%zero, %entry], [%in, %step]
  drv i32$ %s, %i after %d
  wait %step for %d
step:
  %in = add i32 %i, %one
  %done = uge i32 %in, %ten
  br %done, %loop, %exit
exit:
  halt
}
)",
                               M);
  ASSERT_TRUE(PR.Ok) << PR.Error;
  std::string Before = printModule(M);
  BlazeSim::BlazeOptions BO;
  BO.Jit.M = jit::JitOptions::Mode::Off;
  constexpr unsigned N = 4;
  std::vector<std::shared_ptr<const LirProgram>> Progs(N);
  std::vector<std::string> Errs(N);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != N; ++I)
    Threads.emplace_back([&, I] {
      for (unsigned Rep = 0; Rep != 50; ++Rep)
        Progs[I] = BlazeSim::buildProgram(M, "top", BO, Errs[I]);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(printModule(M), Before);
  std::vector<uint64_t> Digests;
  for (unsigned I = 0; I != N; ++I) {
    ASSERT_TRUE(Progs[I]) << Errs[I];
    BlazeSim Sim(Progs[I], SimOptions());
    Sim.run();
    EXPECT_EQ(Sim.trace().numChanges(), 9u);
    Digests.push_back(Sim.trace().digest());
  }
  EXPECT_EQ(std::set<uint64_t>(Digests.begin(), Digests.end()).size(), 1u);
}
