//===- bench/micro_ops.cpp - google-benchmark microbenchmarks ----------------===//
//
// Microbenchmarks of the hot primitives underneath the Table 2 numbers:
// IntValue arithmetic, the event wheel (general and word-lane updates),
// the wake index, assembly parsing, in-memory module cloning, bitcode
// round trips, and full simulations of one design on each engine.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "asm/Printer.h"
#include "bitcode/Bitcode.h"
#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "ir/Clone.h"
#include "moore/Compiler.h"
#include "sim/Interp.h"

#include <benchmark/benchmark.h>

using namespace llhd;

namespace {

//===----------------------------------------------------------------------===//
// Scheduler workload
//===----------------------------------------------------------------------===//

/// The schedule/pop workload: per simulated slot, a burst of next-delta
/// events (the dominant traffic) plus a few future-time events, then a
/// drain of the earliest slot — the steady-state rhythm of the event
/// loop. \p Schedule files the slot's one signal update.
template <typename ScheduleFn>
uint64_t runWheelWorkload(unsigned Slots, ScheduleFn Schedule) {
  Scheduler W;
  SlotEvents Ev;
  uint64_t Popped = 0;
  Time Now;
  for (unsigned I = 0; I != Slots; ++I) {
    // The dominant traffic: a burst of events on the next delta. Wakes
    // carry a 12-byte payload, so what gets measured is the wheel's
    // ordering machinery rather than event-payload copies.
    for (unsigned J = 0; J != 8; ++J)
      W.scheduleWake(driveTarget(Now, Time()), {J, I});
    Schedule(W, driveTarget(Now, Time()), I);
    for (unsigned J = 0; J != 4; ++J) // Spread-out future instants.
      W.scheduleWake(Now.advance(Time::ns(1 + (I * 7 + J * 41) % 97)),
                     {J, I});
    Now = W.nextTime();
    W.pop(Ev);
    Popped += Ev.Entries.size() + Ev.Wakes.size();
  }
  while (!W.empty()) {
    W.pop(Ev);
    Popped += Ev.Entries.size() + Ev.Wakes.size();
  }
  return Popped;
}

/// Wake-set parameters: P processes, each waiting on K of N signals.
constexpr unsigned WakeProcs = 256;
constexpr unsigned WakeSignals = 1024;
constexpr unsigned WakeSensPerProc = 4;

std::vector<std::vector<SignalId>> wakeSensitivities() {
  std::vector<std::vector<SignalId>> Sens(WakeProcs);
  for (unsigned P = 0; P != WakeProcs; ++P)
    for (unsigned K = 0; K != WakeSensPerProc; ++K)
      Sens[P].push_back((P * 37 + K * 131) % WakeSignals);
  return Sens;
}

} // namespace

static void BM_IntValueAdd64(benchmark::State &State) {
  IntValue A(64, 0x123456789abcdef0ull), B(64, 42);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.add(B));
}
BENCHMARK(BM_IntValueAdd64);

static void BM_IntValueMul128(benchmark::State &State) {
  IntValue A(128, {0x123456789abcdef0ull, 0x0fedcba987654321ull});
  IntValue B(128, 12345);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.mul(B));
}
BENCHMARK(BM_IntValueMul128);

static void BM_IntValueUdiv128(benchmark::State &State) {
  IntValue A(128, {0x123456789abcdef0ull, 0x0fedcba987654321ull});
  IntValue B(128, 1000000007);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.udiv(B));
}
BENCHMARK(BM_IntValueUdiv128);

static void BM_WheelScheduleDrainTwoLane(benchmark::State &State) {
  // General updates: a SigUpdate (SigRef + RtValue + driver) per drive.
  SigUpdate U;
  U.Ref.Sig = 0;
  U.Val = RtValue(IntValue(32, 7));
  U.Driver = 1;
  auto Schedule = [&U](Scheduler &W, Time T, unsigned) {
    W.scheduleUpdate(T, U);
  };
  for (auto _ : State)
    benchmark::DoNotOptimize(runWheelWorkload(4096, Schedule));
  State.SetItemsProcessed(State.iterations() * 4096 * 13);
}
BENCHMARK(BM_WheelScheduleDrainTwoLane);

static void BM_WheelScheduleDrainWord(benchmark::State &State) {
  // Word-lane updates: one 24-byte entry per drive.
  auto Schedule = [](Scheduler &W, Time T, unsigned I) {
    W.scheduleWord(T, 0, I, 1);
  };
  for (auto _ : State)
    benchmark::DoNotOptimize(runWheelWorkload(4096, Schedule));
  State.SetItemsProcessed(State.iterations() * 4096 * 13);
}
BENCHMARK(BM_WheelScheduleDrainWord);

static void BM_WakeSetDenseIndex(benchmark::State &State) {
  // The dense reverse index: one lookup per changed signal.
  auto Sens = wakeSensitivities();
  std::vector<uint64_t> Gens(WakeProcs, 1);
  WakeIndex W;
  W.resize(WakeSignals);
  for (uint32_t P = 0; P != WakeProcs; ++P)
    W.watch(P, Gens[P], Sens[P]);
  auto CurGen = [&Gens](uint32_t P) { return Gens[P]; };
  std::vector<uint32_t> Out;
  SignalId Changed = 0;
  for (auto _ : State) {
    Out.clear();
    W.collect(Changed, CurGen, Out);
    benchmark::DoNotOptimize(Out.data());
    Changed = (Changed + 1) % WakeSignals;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_WakeSetDenseIndex);

static void BM_MooreCompileGray(benchmark::State &State) {
  designs::DesignInfo D = designs::designByKey("gray", 0.0);
  for (auto _ : State) {
    Context Ctx;
    Module M(Ctx, "t");
    auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M);
    benchmark::DoNotOptimize(R.Ok);
  }
}
BENCHMARK(BM_MooreCompileGray);

static void BM_AsmRoundTripGray(benchmark::State &State) {
  designs::DesignInfo D = designs::designByKey("gray", 0.0);
  Context Ctx;
  Module M(Ctx, "t");
  (void)moore::compileSystemVerilog(D.Source, D.TopModule, M);
  std::string Text = printModule(M);
  for (auto _ : State) {
    Context C2;
    Module M2(C2, "u");
    benchmark::DoNotOptimize(parseModule(Text, M2).Ok);
  }
}
BENCHMARK(BM_AsmRoundTripGray);

/// Blaze's private copy of a design: the in-memory clone that replaced
/// a print + parse round trip (compare BM_AsmRoundTripGray, which times
/// the parse half alone).
static void BM_CloneGray(benchmark::State &State) {
  designs::DesignInfo D = designs::designByKey("gray", 0.0);
  Context Ctx;
  Module M(Ctx, "t");
  (void)moore::compileSystemVerilog(D.Source, D.TopModule, M);
  for (auto _ : State) {
    Module C(Ctx, "c");
    cloneModule(M, C);
    benchmark::DoNotOptimize(C.units().size());
  }
}
BENCHMARK(BM_CloneGray);

static void BM_BitcodeWriteGray(benchmark::State &State) {
  designs::DesignInfo D = designs::designByKey("gray", 0.0);
  Context Ctx;
  Module M(Ctx, "t");
  (void)moore::compileSystemVerilog(D.Source, D.TopModule, M);
  for (auto _ : State)
    benchmark::DoNotOptimize(writeBitcode(M));
}
BENCHMARK(BM_BitcodeWriteGray);

static void BM_InterpLfsr(benchmark::State &State) {
  designs::DesignInfo D = designs::designByKey("lfsr", 0.0);
  for (auto _ : State) {
    Context Ctx;
    Module M(Ctx, "t");
    auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M);
    SimOptions O;
    O.TraceMode = Trace::Mode::Off;
    InterpSim Sim(elaborate(M, R.TopUnit), O);
    benchmark::DoNotOptimize(Sim.run().Steps);
  }
}
BENCHMARK(BM_InterpLfsr)->Unit(benchmark::kMillisecond);

static void BM_BlazeLfsr(benchmark::State &State) {
  designs::DesignInfo D = designs::designByKey("lfsr", 0.0);
  for (auto _ : State) {
    Context Ctx;
    Module M(Ctx, "t");
    auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M);
    BlazeSim::BlazeOptions O;
    O.TraceMode = Trace::Mode::Off;
    BlazeSim Sim(M, R.TopUnit, O);
    benchmark::DoNotOptimize(Sim.run().Steps);
  }
}
BENCHMARK(BM_BlazeLfsr)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
