//===- tests/sim/AllocGuardTest.cpp - Zero-allocation steady state --------===//
//
// Proves the allocation-free runtime value path: a scalar-only design in
// steady state performs zero heap allocations per delta cycle on the op
// path, for the reference interpreter, Blaze's interpreted LIR and
// Blaze's native code — also while the default hash trace digests
// values whose decimal text outgrows std::string's inline buffer, while
// a VCD writer streams every change of such values to a sink, and while
// a process calls a function every cycle. The Table 2 designs whose
// processes execute `var` every activation hold one memory cell per var
// op however long they run, and stream_delayer's testbench, which
// shifts two array vars every iteration, allocates nothing per shift.
//
// Method: the whole test binary's operator new/delete are replaced with
// counting wrappers. A run of N cycles and a run of 2N cycles of the same
// design perform identical setup work (elaboration, frame preallocation,
// pool warm-up), so if the steady-state op path allocates nothing, both
// runs count exactly the same number of allocations — any per-cycle
// allocation would show up N times over.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "jit/HostCompiler.h"
#include "moore/Compiler.h"
#include "sim/Interp.h"
#include "sim/Lir.h"
#include "sim/Wave.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <ostream>

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

/// A purely scalar clocked counter: 1 GHz clock generator process plus a
/// rising-edge counter process. No aggregates, no var/alloc cells, no
/// function calls — every value on the op path is a width <= 64 scalar.
/// `$T` is the counter type and `$INIT` its initial value.
const char *CounterTemplate = R"(
entity @top () -> () {
  %z1 = const i1 0
  %init = const $T $INIT
  %clk = sig i1 %z1
  %cnt = sig $T %init
  inst @clkgen () -> (i1$ %clk)
  inst @counter (i1$ %clk) -> ($T$ %cnt)
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
proc @counter (i1$ %clk) -> ($T$ %cnt) {
entry:
  %one = const $T 1
  %d0 = const time 0s
  br %loop
loop:
  wait %tick for %clk
tick:
  %c = prb i1$ %clk
  br %c, %loop, %up
up:
  %v = prb $T$ %cnt
  %vn = add $T %v, %one
  drv $T$ %cnt, %vn after %d0
  br %loop
}
)";

/// The counter's increment as a function call (Counter::Calls): the
/// interpreted function frame path and the native callee must not
/// allocate either.
const char *IncrFunction = R"(
func @incr ($T %x) $T {
entry:
  %one = const $T 1
  %y = add $T %x, %one
  ret $T %y
}
)";

/// A counter design starting at \p Init; with \p Calls, it computes
/// each increment through a function call.
struct Counter {
  const char *Ty;
  uint64_t Init;
  bool Calls = false;

  std::string source() const {
    std::string Src = CounterTemplate;
    auto Subst = [&Src](const std::string &Key, const std::string &Val) {
      for (size_t P; (P = Src.find(Key)) != std::string::npos;)
        Src.replace(P, Key.size(), Val);
    };
    if (Calls) {
      Subst("add $T %v, %one", "call $T @incr ($T %v)");
      Src += IncrFunction;
    }
    Subst("$INIT", std::to_string(Init));
    Subst("$T", Ty);
    return Src;
  }
};

/// i32 from zero: the trace text stays short.
const Counter Small{"i32", 0};
/// i64 from 10^18: every change's decimal text is 19 digits, longer than
/// std::string's inline buffer, so digesting through a string would
/// allocate once per change.
const Counter Wide{"i64", 1000000000000000000ull};
/// The i32 counter incrementing through a function call.
const Counter Calling{"i32", 0, /*Calls=*/true};

struct RunResult {
  size_t Allocs;      ///< operator new calls during run().
  uint64_t CountedTo; ///< Final counter value minus its initial value.
  SimStats Stats;
  uint64_t WaveChanges; ///< VCD change lines written (0 without waves).
};

/// A stream buffer that drops every byte: the VCD sink of the wave-on
/// runs, so what is counted is the writer, not the stream.
class NullBuf : public std::streambuf {
protected:
  int overflow(int C) override { return C; }
  std::streamsize xsputn(const char *, std::streamsize N) override {
    return N;
  }
};

template <typename MakeEngine>
RunResult countRun(const Counter &C, uint64_t Cycles, MakeEngine Make,
                   bool Waves) {
  Context Ctx;
  Module M(Ctx, "alloc_guard");
  ParseResult R = parseModule(C.source(), M);
  EXPECT_TRUE(R.Ok) << R.Error;
  NullBuf Buf;
  std::ostream Sink(&Buf);
  WaveWriter W; // Outlives the engine, whose event loop feeds it.
  W.streamTo(Sink);
  auto Engine = Make(M, Cycles, Waves ? &W : nullptr);
  size_t Before = GNewCount.load(std::memory_order_relaxed);
  SimStats St = Engine->run();
  size_t Allocs = GNewCount.load(std::memory_order_relaxed) - Before;
  uint64_t Counted = 0;
  const SignalTable &Sigs = Engine->signals();
  for (SignalId S = 0; S != Sigs.size(); ++S)
    if (Sigs.name(S).find("cnt") != std::string::npos)
      Counted = Sigs.value(S).intValue().zextToU64() - C.Init;
  return {Allocs, Counted, St, W.numDumpedChanges()};
}

SimOptions optsFor(uint64_t Cycles, Trace::Mode TM, WaveWriter *Wave) {
  SimOptions Opts;
  Opts.TraceMode = TM;
  Opts.MaxTime = Time::ns(2 * Cycles);
  Opts.Wave = Wave;
  return Opts;
}

/// Runs \p C for 200 and 400 cycles. Doubling the cycle count must not
/// add a single allocation: the op path (prb/add/drv/wait plus scheduler,
/// wake index and trace) is allocation-free once the pools are warm.
/// Every drive targets a whole two-state signal of at most 64 bits, so
/// every drive must take the scheduler's word lane: a silent fallback to
/// the general path fails here. With \p Waves, a VCD writer streams
/// every change to a discarding sink, and it must add no allocation
/// either.
template <typename MakeEngine>
void expectSteadyStateAllocationFree(const Counter &C, MakeEngine Make,
                                     bool Waves = false) {
  RunResult Short = countRun(C, 200, Make, Waves);
  RunResult Long = countRun(C, 400, Make, Waves);
  // The design actually ran and counted.
  EXPECT_GE(Short.CountedTo, 190u);
  EXPECT_GE(Long.CountedTo, 390u);
  EXPECT_EQ(Short.Allocs, Long.Allocs);
  for (const RunResult *R : {&Short, &Long}) {
    EXPECT_GT(R->Stats.DrivesScheduled, 0u);
    EXPECT_EQ(R->Stats.WordDrives, R->Stats.DrivesScheduled);
    // Waves on: every clock edge and every count was dumped.
    EXPECT_EQ(R->WaveChanges != 0, Waves);
    if (Waves) {
      EXPECT_GE(R->WaveChanges, 3 * (R->CountedTo - 1));
    }
  }
}

auto makeInterp(Trace::Mode TM) {
  return [TM](Module &M, uint64_t Cycles, WaveWriter *Wave) {
    return std::make_unique<InterpSim>(elaborate(M, "top"),
                                       optsFor(Cycles, TM, Wave));
  };
}

auto makeBlaze(Trace::Mode TM, jit::JitOptions::Mode Jit) {
  return [TM, Jit](Module &M, uint64_t Cycles, WaveWriter *Wave) {
    BlazeSim::BlazeOptions Opts;
    static_cast<SimOptions &>(Opts) = optsFor(Cycles, TM, Wave);
    Opts.Jit.M = Jit;
    auto B = std::make_unique<BlazeSim>(M, "top", Opts);
    if (Jit != jit::JitOptions::Mode::Off) {
      // Both processes run native, and their probes read in place.
      EXPECT_TRUE(B->jitStats().Compiled) << B->jitStats().Warning;
      EXPECT_EQ(B->jitStats().NativeProcs, 2u);
      EXPECT_EQ(B->jitStats().ResolvedPrbs, 0u);
    }
    return B;
  };
}

} // namespace

TEST(AllocGuard, InterpSteadyStateIsAllocationFree) {
  expectSteadyStateAllocationFree(Small, makeInterp(Trace::Mode::Off));
}

TEST(AllocGuard, BlazeSteadyStateIsAllocationFree) {
  expectSteadyStateAllocationFree(
      Small, makeBlaze(Trace::Mode::Off, jit::JitOptions::Mode::Off));
}

// The default hash trace digests every change without materialising
// its text, however long the decimal form.
TEST(AllocGuard, HashTraceIsAllocationFree) {
  expectSteadyStateAllocationFree(Wide, makeInterp(Trace::Mode::Hash));
  expectSteadyStateAllocationFree(
      Wide, makeBlaze(Trace::Mode::Hash, jit::JitOptions::Mode::Off));
}

// A VCD writer streaming to a sink: each change of the i64 counter is a
// word store, and its line (longer than std::string's inline buffer) is
// rendered straight into the writer's one output buffer.
TEST(AllocGuard, WaveWriterIsAllocationFree) {
  expectSteadyStateAllocationFree(Wide, makeInterp(Trace::Mode::Hash),
                                  /*Waves=*/true);
  expectSteadyStateAllocationFree(
      Wide, makeBlaze(Trace::Mode::Hash, jit::JitOptions::Mode::Off),
      /*Waves=*/true);
}

// Native processes: probe, drive and wait callbacks allocate nothing.
TEST(AllocGuard, BlazeNativeSteadyStateIsAllocationFree) {
  if (jit::HostCompiler::findCompiler().empty())
    GTEST_SKIP() << "no host C++ compiler: Blaze runs interpreted";
  expectSteadyStateAllocationFree(
      Wide, makeBlaze(Trace::Mode::Hash, jit::JitOptions::Mode::On));
}

// A process calling a function every cycle: the interpreter's pooled
// function frames and argument buffers, and the native callee's local
// lanes, allocate nothing in steady state.
TEST(AllocGuard, FunctionCallSteadyStateIsAllocationFree) {
  expectSteadyStateAllocationFree(
      Calling, makeBlaze(Trace::Mode::Off, jit::JitOptions::Mode::Off));
  if (jit::HostCompiler::findCompiler().empty())
    GTEST_SKIP() << "no host C++ compiler: Blaze runs interpreted";
  expectSteadyStateAllocationFree(
      Calling, makeBlaze(Trace::Mode::Off, jit::JitOptions::Mode::On));
}

// rr_arbiter and gray run `var` inside their process loops on every
// activation. On the reference interpreter, at two iteration counts, each
// process must hold exactly one memory cell per var op (a cell per
// execution would grow with the run), and the longer run must allocate
// no more than the shorter one.
TEST(AllocGuard, VarCellsStayOnePerVarOp) {
  for (const char *Key : {"rr_arbiter", "gray"}) {
    size_t Allocs[2];
    const double Scales[2] = {0.001, 0.002};
    uint64_t Steps[2];
    for (int K = 0; K != 2; ++K) {
      designs::DesignInfo D = designs::designByKey(Key, Scales[K]);
      ASSERT_FALSE(D.Key.empty()) << Key;
      Context Ctx;
      Module M(Ctx, Key);
      moore::CompileResult R =
          moore::compileSystemVerilog(D.Source, D.TopModule, M);
      ASSERT_TRUE(R.Ok) << R.Error;
      SimOptions Opts;
      Opts.TraceMode = Trace::Mode::Hash;
      InterpSim Sim(elaborate(M, R.TopUnit), Opts);
      ASSERT_TRUE(Sim.valid()) << Sim.error();
      size_t Before = GNewCount.load(std::memory_order_relaxed);
      SimStats St = Sim.run();
      Allocs[K] = GNewCount.load(std::memory_order_relaxed) - Before;
      Steps[K] = St.Steps;
      EXPECT_EQ(St.AssertFailures, 0u) << Key;

      uint32_t PI = 0, VarProcs = 0;
      for (const UnitInstance &UI : Sim.design().Instances) {
        if (!UI.U->isProcess())
          continue;
        LirUnit L = lowerUnit(*UI.U);
        size_t VarOps = 0;
        for (const LirOp &Op : L.Ops)
          VarOps += baseOpc(Op.C) == LirOpc::Var;
        VarProcs += VarOps != 0;
        EXPECT_EQ(Sim.processCells(PI), VarOps)
            << Key << " " << UI.HierName << " at scale " << Scales[K];
        ++PI;
      }
      EXPECT_GT(VarProcs, 0u) << Key << ": no process executes a var";
    }
    EXPECT_GT(Steps[1], Steps[0] + Steps[0] / 2) << Key;
    EXPECT_EQ(Allocs[0], Allocs[1]) << Key;
  }
}

// stream_delayer's testbench keeps its history in two array vars and
// shifts them with ld/extf/insf/st on every iteration. The copies into
// and out of the var cells and the insf itself reuse the element buffer
// already in the destination slot, so on the reference interpreter
// doubling the iteration count adds no allocation.
TEST(AllocGuard, ArrayVarShiftIsAllocationFree) {
  size_t Allocs[2];
  uint64_t Runs[2];
  const double Scales[2] = {0.001, 0.002};
  for (int K = 0; K != 2; ++K) {
    designs::DesignInfo D = designs::designByKey("stream_delayer", Scales[K]);
    ASSERT_FALSE(D.Key.empty());
    Context Ctx;
    Module M(Ctx, "stream_delayer");
    moore::CompileResult R =
        moore::compileSystemVerilog(D.Source, D.TopModule, M);
    ASSERT_TRUE(R.Ok) << R.Error;
    SimOptions Opts;
    Opts.TraceMode = Trace::Mode::Hash;
    InterpSim Sim(elaborate(M, R.TopUnit), Opts);
    ASSERT_TRUE(Sim.valid()) << Sim.error();
    size_t Before = GNewCount.load(std::memory_order_relaxed);
    SimStats St = Sim.run();
    Allocs[K] = GNewCount.load(std::memory_order_relaxed) - Before;
    Runs[K] = St.ProcessRuns;
    EXPECT_EQ(St.AssertFailures, 0u);
  }
  EXPECT_GT(Runs[1], Runs[0] + Runs[0] / 2);
  EXPECT_EQ(Allocs[0], Allocs[1]);
}

/// A clock and a process that, on every rising edge, probes a whole
/// [2 x i32] array signal, shifts it through extf/add/insf and drives it
/// back: element 0 counts the edges.
const char *ArrayShifter = R"(
entity @top () -> () {
  %z1 = const i1 0
  %z32 = const i32 0
  %a0 = [i32 %z32, %z32]
  %clk = sig i1 %z1
  %arr = sig [2 x i32] %a0
  inst @clkgen () -> (i1$ %clk)
  inst @shift (i1$ %clk) -> ([2 x i32]$ %arr)
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
proc @shift (i1$ %clk) -> ([2 x i32]$ %arr) {
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
  %a = prb [2 x i32]$ %arr
  %e = extf i32 %a, 0
  %n = add i32 %e, %one
  %b0 = insf [2 x i32] %a, %n, 0
  %b = insf [2 x i32] %b0, %e, 1
  drv [2 x i32]$ %arr, %b after %d0
  br %loop
}
)";

// Whole-array drives: the probe reads the stored array in place, the
// drive packs the array's words into one RtValue it keeps (the slot's
// own on the interpreter, the site's scratch value natively), the
// scheduler assigns that into a spent update's element buffer, and the
// commit assigns in place. Doubling the cycle count adds no allocation,
// on the reference interpreter and natively. The trace is off: it
// renders an array change as text, which allocates once the text
// outgrows std::string's inline buffer.
TEST(AllocGuard, ArrayDrivesAreAllocationFree) {
  auto allocs = [](uint64_t Cycles, bool Native) {
    Context Ctx;
    Module M(Ctx, "array_guard");
    ParseResult R = parseModule(ArrayShifter, M);
    EXPECT_TRUE(R.Ok) << R.Error;
    std::unique_ptr<InterpSim> Sim;
    BlazeSim::BlazeOptions Opts;
    static_cast<SimOptions &>(Opts) =
        optsFor(Cycles, Trace::Mode::Off, nullptr);
    if (Native) {
      Opts.Jit.M = jit::JitOptions::Mode::On;
      Sim = std::make_unique<BlazeSim>(M, "top", Opts);
      EXPECT_EQ(Sim->jitStats().NativeProcs, 2u);
    } else {
      Sim = std::make_unique<InterpSim>(elaborate(M, "top"), Opts);
    }
    size_t Before = GNewCount.load(std::memory_order_relaxed);
    SimStats St = Sim->run();
    size_t Allocs = GNewCount.load(std::memory_order_relaxed) - Before;
    EXPECT_GE(St.DrivesScheduled, 2 * Cycles);
    const SignalTable &Sigs = Sim->signals();
    for (SignalId S = 0; S != Sigs.size(); ++S)
      if (Sigs.name(S).find("arr") != std::string::npos) {
        EXPECT_GE(Sigs.value(S).elements()[0].intValue().zextToU64(),
                  Cycles - 10);
      }
    return Allocs;
  };
  EXPECT_EQ(allocs(200, false), allocs(400, false));
  if (jit::HostCompiler::findCompiler().empty())
    GTEST_SKIP() << "no host C++ compiler: Blaze runs interpreted";
  EXPECT_EQ(allocs(200, true), allocs(400, true));
}

TEST(AllocGuard, RtValueLayout) {
  static_assert(sizeof(RtValue) <= 32,
                "scalar RtValue must stay within 32 bytes");
  // Scalar construction and copying perform no allocation.
  size_t Before = GNewCount.load(std::memory_order_relaxed);
  RtValue A{IntValue(64, ~0ull)};
  RtValue B = A;
  RtValue C{LogicVec(16, Logic::L1)};
  RtValue D = C;
  RtValue E{Time::ns(5)};
  SigRef Whole;
  Whole.Sig = 3;
  RtValue F{Whole};
  RtValue G = F;
  EXPECT_EQ(GNewCount.load(std::memory_order_relaxed), Before);
  EXPECT_EQ(A, B);
  EXPECT_EQ(C, D);
  EXPECT_EQ(F.sigId(), 3u);
  (void)E;
  (void)G;
}
