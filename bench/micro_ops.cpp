//===- bench/micro_ops.cpp - google-benchmark microbenchmarks ----------------===//
//
// Microbenchmarks of the hot primitives underneath the Table 2 numbers:
// IntValue arithmetic, the event wheel (general and word-lane updates),
// the wake index, the VCD writer's change path (word and text lanes),
// assembly parsing, in-memory module cloning, bitcode round trips, and
// full simulations of one design on each engine.
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
#include "sim/Wave.h"

#include <benchmark/benchmark.h>

#include <ostream>
#include <random>

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

//===----------------------------------------------------------------------===//
// Wave workload
//===----------------------------------------------------------------------===//

/// A stream buffer that drops every byte, so the wave benchmarks time
/// the writer rather than I/O.
class NullBuf : public std::streambuf {
protected:
  int overflow(int C) override { return C; }
  std::streamsize xsputn(const char *, std::streamsize N) override {
    return N;
  }
};

constexpr unsigned WaveSignals = 64;
constexpr unsigned WaveChangesPerInstant = 8;

/// The VCD change path in steady state: WaveSignals signals of type \p Ty
/// streaming to a discarding sink; per instant, WaveChangesPerInstant of
/// them change to values drawn from \p Vals (a delta glitch and its
/// settled value each), and the next instant flushes the settled lines.
void runWaveWorkload(benchmark::State &State, Type *Ty,
                     const std::vector<RtValue> &Vals) {
  SignalTable Sigs;
  for (unsigned I = 0; I != WaveSignals; ++I)
    Sigs.create(Ty, Vals[0], "top/s" + std::to_string(I));
  Sigs.freeze();
  NullBuf Buf;
  std::ostream OS(&Buf);
  WaveWriter W;
  W.streamTo(OS);
  W.begin(Sigs);
  uint64_t Fs = 0;
  size_t K = 0;
  for (auto _ : State) {
    Fs += 1000;
    for (unsigned I = 0; I != WaveChangesPerInstant; ++I) {
      SignalId S = (Fs / 1000 * 3 + I * 7) % WaveSignals;
      W.onChange(Time(Fs, 1), S, Vals[K++ % Vals.size()]);
      W.onChange(Time(Fs, 2), S, Vals[K++ % Vals.size()]);
    }
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(W.numBytes());
  State.SetItemsProcessed(State.iterations() * 2 * WaveChangesPerInstant);
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

/// Word lane: i48 values, whose lines outgrow std::string's inline
/// buffer.
static void BM_WaveChangeWord(benchmark::State &State) {
  Context Ctx;
  std::mt19937_64 Rng(1);
  std::vector<RtValue> Vals;
  for (unsigned I = 0; I != 61; ++I)
    Vals.emplace_back(IntValue(48, Rng()));
  runWaveWorkload(State, Ctx.intType(48), Vals);
}
BENCHMARK(BM_WaveChangeWord);

/// Text lane: l16 values over the 0/1/X/Z alphabet.
static void BM_WaveChangeLogic(benchmark::State &State) {
  Context Ctx;
  std::mt19937_64 Rng(1);
  const Logic Alphabet[] = {Logic::L0, Logic::L1, Logic::X, Logic::Z};
  std::vector<RtValue> Vals;
  for (unsigned I = 0; I != 61; ++I) {
    LogicVec V(16);
    for (unsigned B = 0; B != 16; ++B)
      V.setBit(B, Alphabet[Rng() % 4]);
    Vals.emplace_back(std::move(V));
  }
  runWaveWorkload(State, Ctx.logicType(16), Vals);
}
BENCHMARK(BM_WaveChangeLogic);

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
