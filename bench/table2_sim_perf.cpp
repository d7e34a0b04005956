//===- bench/table2_sim_perf.cpp - Table 2: simulation performance ---------===//
//
// Regenerates Table 2: for each of the ten designs, the SystemVerilog
// LoC, the simulated cycle count, and the runtime of the two engines —
// Int. (LLHD-Sim reference interpreter) and JIT (LLHD-Blaze, native
// code). The paper's commercial-simulator column is not reproduced (no
// such simulator is available here; see DESIGN.md). Traces are verified
// equal across engines, reproducing the paper's "traces match between
// the two simulators for all designs".
//
// Cycle counts default to 1/1000 of the paper's (pass --scale=1 for the
// full counts; the interpreter column then takes hours, as in the paper).
//
// --gate=<BENCH_sim.json> compares the fresh Int. and JIT geomeans with a
// committed baseline. Every timed Int. and JIT run is normalised by a run
// of a calibration kernel just before it, and the kernel shares no code
// with the library (see calibrationRun): a change to the engines moves
// the numbers the gate reads, a change of host speed mostly does not.
// The gate also compares each design's exact work counts (the engines'
// steps, process runs, entity evaluations and drives, each engine's
// static LIR op count, Blaze's native and interpreted process instances
// and the generated C++'s size) with the committed ones, and they must
// be equal: they do not depend on the machine, so any difference
// is a change of what the engines compute. --counts-only gates on the
// counts alone, a deterministic check.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "moore/Compiler.h"
#include "sim/Batch.h"
#include "sim/Interp.h"
#include "sim/Program.h"
#include "sim/Wave.h"

#include <thread>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

using namespace llhd;
using namespace llhd_bench;

namespace {

/// The exact work counts of one design, in their BENCH_sim.json order:
/// each engine's SimStats work (Blaze's prefixed "blaze_"), the static
/// op count of each engine's lowering, Blaze's process instances bound
/// to native code and interpreted (a process that stops compiling moves
/// from one to the other), and the size of Blaze's generated C++
/// (jit.source_bytes in perfbench).
const char *const CountNames[] = {
    "steps", "process_runs", "entity_evals", "drives", "word_drives",
    "blaze_steps", "blaze_process_runs", "blaze_entity_evals",
    "blaze_drives", "blaze_word_drives", "lir_ops", "blaze_lir_ops",
    "native_procs", "interp_procs", "jit_source_bytes"};
using Counts = std::array<uint64_t, std::size(CountNames)>;

Counts countsOf(const SimStats &Int, const SimStats &Jit, uint64_t LirOps,
                uint64_t BlazeLirOps, const BlazeSim &B) {
  return {Int.Steps, Int.ProcessRuns, Int.EntityEvals, Int.DrivesScheduled,
          Int.WordDrives, Jit.Steps, Jit.ProcessRuns, Jit.EntityEvals,
          Jit.DrivesScheduled, Jit.WordDrives, LirOps, BlazeLirOps,
          B.jitStats().NativeProcs, B.jitStats().InterpProcs,
          B.jitSource().size()};
}

/// The static op count of \p P's lowering.
uint64_t lirOps(const LirProgram &P) {
  uint64_t N = 0;
  P.Cache.forEach(
      [&](const Unit *, const LirUnit &L) { N += L.Ops.size(); });
  return N;
}

/// One design's measurements for the machine-readable dump.
struct Row {
  std::string Name;
  uint64_t Cycles;
  double IntS, JitS;
  /// The fastest Int. and JIT runs in calibration units: engine ns per
  /// cycle over the calibration kernel's ns per iteration, taken run by
  /// run against the kernel run just before, minimum over repetitions.
  double IntCal, JitCal;
  double CompileMs; ///< Blaze elaborate+codegen+host-compile wall time.
  bool TracesMatch;
  /// --batch columns (0 when the mode is off): wall seconds for N
  /// instances run sequentially (jobs=1) vs on the worker pool, over
  /// one shared program each.
  double BatchSeqS = 0, BatchPoolS = 0;
  Counts Work{};
};

/// Per-engine geometric means: ns/cycle and calibration units.
struct Geomeans {
  double Int = 0, Jit = 0, IntCal = 0, JitCal = 0;
  bool Ok = false;
};

/// Iterations of the calibration kernel's loop body per run (~3 ms).
constexpr uint32_t CalibIters = 40000;
/// Keeps the calibration kernel's result observable.
volatile uint64_t CalibSink;

/// One run of the perf gate's machine-speed reference, in ns per loop
/// iteration. The kernel shares no code with the library: a small
/// register machine (switch dispatch over a 32-instruction body, a
/// 16-entry register file, loads and stores into a 1024-word table,
/// data-dependent skips) runs a fixed program CalibIters times. That is
/// the same kind of work as the engines' run phase (indirect dispatch,
/// short dependent integer chains, L1 traffic), so the kernel's speed
/// tracks the host's while no engine change can move it. The program is
/// drawn from a fixed seed at run time so the compiler cannot specialise
/// it.
double calibrationRun() {
  enum : uint8_t { KAdd, KXor, KMul, KShr, KLoad, KStore, KSkip, KNumOps };
  struct KIns {
    uint8_t Op, D, A, B;
  };
  std::mt19937 G(0x5eed);
  std::vector<KIns> Prog(32);
  for (KIns &I : Prog)
    I = {uint8_t(G() % KNumOps), uint8_t(G() % 16), uint8_t(G() % 16),
         uint8_t(G() % 16)};
  uint64_t R[16];
  for (unsigned I = 0; I != 16; ++I)
    R[I] = I * 0x9e3779b97f4a7c15ull + 1;
  std::vector<uint64_t> Mem(1024, 0);
  double Sec = timeIt([&] {
    for (uint32_t It = 0; It != CalibIters; ++It) {
      for (size_t Pc = 0; Pc < Prog.size(); ++Pc) {
        const KIns &I = Prog[Pc];
        switch (I.Op) {
        case KAdd:
          R[I.D] = R[I.A] + R[I.B];
          break;
        case KXor:
          R[I.D] = R[I.A] ^ (R[I.B] >> 7);
          break;
        case KMul:
          R[I.D] = R[I.A] * (R[I.B] | 1);
          break;
        case KShr:
          R[I.D] = R[I.A] >> (R[I.B] & 31);
          break;
        case KLoad:
          R[I.D] = Mem[R[I.A] & 1023];
          break;
        case KStore:
          Mem[R[I.A] & 1023] = R[I.B] + It;
          break;
        default:
          Pc += R[I.A] & 1;
          break;
        }
      }
    }
  });
  CalibSink = R[0] ^ R[15] ^ Mem[R[1] & 1023];
  return Sec * 1e9 / CalibIters;
}

double nsPerCycleOf(double Sec, uint64_t Cycles) {
  return Cycles ? Sec * 1e9 / (double)Cycles : 0.0;
}

Geomeans geomeansOf(const std::vector<Row> &Rows) {
  Geomeans G;
  double LInt = 0, LJit = 0, LIntCal = 0, LJitCal = 0;
  for (const Row &R : Rows) {
    LInt += std::log(nsPerCycleOf(R.IntS, R.Cycles));
    LJit += std::log(nsPerCycleOf(R.JitS, R.Cycles));
    LIntCal += std::log(R.IntCal);
    LJitCal += std::log(R.JitCal);
  }
  size_t N = Rows.empty() ? 1 : Rows.size();
  G.Int = std::exp(LInt / N);
  G.Jit = std::exp(LJit / N);
  G.IntCal = std::exp(LIntCal / N);
  G.JitCal = std::exp(LJitCal / N);
  G.Ok = !Rows.empty();
  return G;
}

/// The whole text of the file \p Path ("" when it cannot be read).
std::string readFile(const std::string &Path) {
  std::string Text;
  FILE *F = fopen(Path.c_str(), "r");
  if (!F)
    return Text;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  fclose(F);
  return Text;
}

/// Reads the geomean line out of a BENCH_sim.json's \p Text. The last
/// occurrence wins: committed files may carry a historical baseline
/// section before the current numbers.
Geomeans parseGeomeans(const std::string &Text) {
  Geomeans G;
  const char *Key = "\"geomean_ns_per_cycle\"";
  size_t Pos = Text.rfind(Key);
  if (Pos == std::string::npos)
    return G;
  G.Ok = sscanf(Text.c_str() + Pos,
                "\"geomean_ns_per_cycle\": {\"interp\": %lf, \"blaze\": "
                "%lf, \"interp_calib\": %lf, \"blaze_calib\": %lf",
                &G.Int, &G.Jit, &G.IntCal, &G.JitCal) == 4 &&
         G.IntCal > 0 && G.JitCal > 0;
  return G;
}

/// Reads the work counts of the design named \p Name out of a
/// BENCH_sim.json's \p Text into \p Out; false when its line has none.
bool parseCounts(const std::string &Text, const std::string &Name,
                 Counts &Out) {
  size_t Pos = Text.rfind("{\"name\": \"" + Name + "\"");
  if (Pos == std::string::npos)
    return false;
  std::string Line = Text.substr(Pos, Text.find('\n', Pos) - Pos);
  size_t At = Line.find("\"counts\": {");
  for (size_t I = 0; I != Out.size(); ++I) {
    std::string Key = std::string("\"") + CountNames[I] + "\": ";
    At = At == std::string::npos ? At : Line.find(Key, At);
    if (At == std::string::npos)
      return false;
    At += Key.size();
    Out[I] = strtoull(Line.c_str() + At, nullptr, 10);
  }
  return true;
}

/// Compares every row's work counts with the baseline's exactly and
/// prints each difference; true when all are equal.
bool countsMatch(const std::vector<Row> &Rows, const std::string &Text) {
  bool Ok = true;
  for (const Row &R : Rows) {
    Counts Base;
    if (!parseCounts(Text, R.Name, Base)) {
      printf("  %s: no baseline work counts\n", R.Name.c_str());
      Ok = false;
      continue;
    }
    for (size_t I = 0; I != Base.size(); ++I) {
      if (R.Work[I] == Base[I])
        continue;
      printf("  %s: %s %llu vs baseline %llu\n", R.Name.c_str(),
             CountNames[I], (unsigned long long)R.Work[I],
             (unsigned long long)Base[I]);
      Ok = false;
    }
  }
  return Ok;
}

/// The perf gate: every design's work counts must equal the committed
/// baseline's exactly. Unless \p CountsOnly, it also compares fresh
/// interp/blaze geomeans against the baseline's, both in calibration
/// units (Row::IntCal/JitCal), so the comparison is robust to absolute
/// machine speed and no engine change moves the reference, and fails on
/// a >Tol relative regression of either engine.
int runGate(const std::vector<Row> &Rows, const std::string &GatePath,
            double Tol, bool CountsOnly) {
  std::string Text = readFile(GatePath);
  printf("\nWork counts vs %s (exact):\n", GatePath.c_str());
  bool Fail = !countsMatch(Rows, Text);
  printf("  counts: %s\n", Fail ? "differ" : "equal");
  for (const Row &R : Rows)
    Fail |= !R.TracesMatch;
  if (CountsOnly) {
    printf("  gate: %s\n", Fail ? "FAIL" : "ok");
    return Fail ? 2 : 0;
  }
  Geomeans Fresh = geomeansOf(Rows);
  Geomeans Base = parseGeomeans(Text);
  if (!Fresh.Ok || !Base.Ok) {
    fprintf(stderr,
            "perf gate: cannot read baseline geomeans (interp_calib, "
            "blaze_calib) from %s\n",
            GatePath.c_str());
    return 1;
  }
  double FInt = Fresh.IntCal, BInt = Base.IntCal;
  double FJit = Fresh.JitCal, BJit = Base.JitCal;
  printf("\nPerf gate vs %s (tolerance %.0f%%, calibration-normalised):\n",
         GatePath.c_str(), Tol * 100);
  printf("  interp: %.2f vs baseline %.2f (%+.1f%%)\n", FInt, BInt,
         (FInt / BInt - 1) * 100);
  printf("  blaze:  %.2f vs baseline %.2f (%+.1f%%)\n", FJit, BJit,
         (FJit / BJit - 1) * 100);
  Fail |= FInt > BInt * (1 + Tol) || FJit > BJit * (1 + Tol);
  printf("  gate: %s\n", Fail ? "FAIL" : "ok");
  return Fail ? 2 : 0;
}

/// Writes per-engine ns/cycle (and geometric means) as JSON so future
/// PRs can diff simulation performance mechanically. \p BatchN non-zero
/// adds the --batch throughput block (aggregate cycles/sec, sequential
/// and pooled, plus the scaling ratio).
void writeJson(const std::string &Path, double Scale,
               const std::vector<Row> &Rows, unsigned BatchN) {
  FILE *F = fopen(Path.c_str(), "w");
  if (!F) {
    fprintf(stderr, "cannot write %s\n", Path.c_str());
    return;
  }
  double SumCompile = 0;
  fprintf(F, "{\n  \"bench\": \"table2_sim_perf\",\n");
  fprintf(F, "  \"scale\": %g,\n  \"designs\": [\n", Scale);
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Row &R = Rows[I];
    double NInt = nsPerCycleOf(R.IntS, R.Cycles),
           NJit = nsPerCycleOf(R.JitS, R.Cycles);
    SumCompile += R.CompileMs;
    fprintf(F,
            "    {\"name\": \"%s\", \"cycles\": %llu, "
            "\"interp_ns_per_cycle\": %.1f, \"blaze_ns_per_cycle\": %.1f, "
            "\"interp_calib\": %.2f, \"blaze_calib\": %.2f, "
            "\"blaze_compile_ms\": %.1f, "
            "\"traces_match\": %s, \"counts\": {",
            R.Name.c_str(), (unsigned long long)R.Cycles, NInt, NJit,
            R.IntCal, R.JitCal, R.CompileMs,
            R.TracesMatch ? "true" : "false");
    for (size_t J = 0; J != R.Work.size(); ++J)
      fprintf(F, "%s\"%s\": %llu", J ? ", " : "", CountNames[J],
              (unsigned long long)R.Work[J]);
    fprintf(F, "}}%s\n", I + 1 != Rows.size() ? "," : "");
  }
  if (BatchN) {
    // Aggregate fleet throughput: total simulated cycles per wall
    // second across the whole suite, sequential loop vs worker pool
    // over the same shared programs. scaling = seq/pool (1.0 on one
    // core; approaches the core count on a parallel runner).
    double SeqS = 0, PoolS = 0;
    uint64_t FleetCycles = 0;
    for (const Row &R : Rows) {
      SeqS += R.BatchSeqS;
      PoolS += R.BatchPoolS;
      FleetCycles += BatchN * R.Cycles;
    }
    fprintf(F,
            "  ],\n  \"batch\": {\"n\": %u, \"jobs\": %u, "
            "\"seq_cycles_per_sec\": %.0f, \"pool_cycles_per_sec\": %.0f, "
            "\"scaling\": %.2f},\n  \"geomean_ns_per_cycle\": ",
            BatchN, std::thread::hardware_concurrency(),
            SeqS > 0 ? FleetCycles / SeqS : 0.0,
            PoolS > 0 ? FleetCycles / PoolS : 0.0,
            PoolS > 0 ? SeqS / PoolS : 0.0);
  } else {
    fprintf(F, "  ],\n  \"geomean_ns_per_cycle\": ");
  }
  // New fields must stay behind "blaze_calib": parseGeomeans() scans
  // this line with a fixed prefix.
  Geomeans G = geomeansOf(Rows);
  fprintf(F,
          "{\"interp\": %.1f, \"blaze\": %.1f, "
          "\"interp_calib\": %.2f, \"blaze_calib\": %.2f, "
          "\"blaze_compile_ms_total\": %.1f}\n}\n",
          G.Int, G.Jit, G.IntCal, G.JitCal, SumCompile);
  fclose(F);
  printf("wrote %s\n", Path.c_str());
}

} // namespace

int main(int argc, char **argv) {
  double Scale = argFloat(argc, argv, "scale", 0.001);
  unsigned Reps =
      std::max(1u, (unsigned)argFloat(argc, argv, "reps", 1));
  bool Verify = !argFlag(argc, argv, "no-verify");
  // --no-jit: ablation switch, runs Blaze through the LIR interpreter
  // instead of native code (the pre-JIT configuration).
  bool NoJit = argFlag(argc, argv, "no-jit");
  std::string JsonPath = argStr(argc, argv, "json", "BENCH_sim.json");
  // --batch[=N]: also measure fleet throughput — N instances per design
  // over one shared program, sequential loop vs worker pool.
  unsigned BatchN = (unsigned)argFloat(argc, argv, "batch",
                                       argFlag(argc, argv, "batch") ? 8 : 0);
  // Optional waveform dump: attaches the VCD observer to every timed
  // run (so the numbers then include tracing overhead), cross-checks
  // that both engines emit byte-identical dumps, and writes the
  // interpreter's to <dir>/<design>.vcd.
  std::string VcdDir = argStr(argc, argv, "vcd-dir", "");
  std::vector<Row> Rows;

  printf("Table 2: Simulation performance of LLHD (scale=%g of paper "
         "cycle counts)\n",
         Scale);
  printf("Engines: Int. = LLHD-Sim reference interpreter, JIT = "
         "LLHD-Blaze%s\n\n",
         NoJit ? " (native codegen OFF, --no-jit)" : "");
  printf("%-16s %5s %10s %12s %12s %9s %8s\n", "Design", "LoC", "Cycles",
         "Int. [s]", "JIT [s]", "Comp.[ms]", "Int/JIT");

  for (const designs::DesignInfo &D : designs::allDesigns(Scale)) {
    Context Ctx;
    Module M1(Ctx, "int"), M2(Ctx, "jit");
    auto R1 = moore::compileSystemVerilog(D.Source, D.TopModule, M1);
    auto R2 = moore::compileSystemVerilog(D.Source, D.TopModule, M2);
    if (!R1.Ok || !R2.Ok) {
      printf("%-16s COMPILE ERROR: %s\n", D.PaperName.c_str(),
             R1.Error.c_str());
      continue;
    }

    SimOptions Opts;
    Opts.TraceMode = Verify ? Trace::Mode::Hash : Trace::Mode::Off;
    bool DumpVcd = !VcdDir.empty();

    // With --reps=N each engine simulates the design N times and the
    // minimum runtime counts — the noise-robust estimator the perf
    // gate relies on. Trace/VCD comparisons use the last repetition
    // (the digests are identical across reps by determinism).
    double TInt = 1e300, TJit = 1e300;
    double IntCal = 1e300, JitCal = 1e300;
    // Times one engine run into Best and, for the gate, into BestCal in
    // calibration units against a kernel run just before it.
    auto timeRun = [&](auto &&Run, double &Best, double &BestCal) {
      double CalNs = calibrationRun();
      double T = timeIt(Run);
      Best = std::min(Best, T);
      BestCal = std::min(BestCal, nsPerCycleOf(T, D.Iterations) / CalNs);
    };
    double CompileMs = 0;
    // The static op count of each engine's lowering: the interpreter's
    // of the module as written, Blaze's of its optimised clone.
    uint64_t LirOps = lirOps(*LirProgram::build(elaborate(M1, R1.TopUnit)));
    BlazeSim::BlazeOptions Lowered;
    Lowered.Jit.M = jit::JitOptions::Mode::Off;
    std::string Err;
    auto BlazeProg = BlazeSim::buildProgram(M2, R2.TopUnit, Lowered, Err);
    uint64_t BlazeLirOps = BlazeProg ? lirOps(*BlazeProg) : 0;
    SimStats S1, S2;
    std::unique_ptr<InterpSim> Int;
    std::unique_ptr<BlazeSim> Jit;
    WaveWriter WInt, WJit;
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      bool LastRep = Rep + 1 == Reps;
      Design Dn = elaborate(M1, R1.TopUnit);
      Opts.Wave = DumpVcd && LastRep ? &WInt : nullptr;
      Int = std::make_unique<InterpSim>(std::move(Dn), Opts);
      timeRun([&] { S1 = Int->run(); }, TInt, IntCal);

      BlazeSim::BlazeOptions BOpts;
      static_cast<SimOptions &>(BOpts) = Opts;
      BOpts.Wave = DumpVcd && LastRep ? &WJit : nullptr;
      if (NoJit)
        BOpts.Jit.M = jit::JitOptions::Mode::Off;
      // Blaze's compile time (optimise + elaborate + codegen + host
      // compile) all happens in the constructor. The first rep is the
      // honest number; later reps hit the source-hash object cache.
      double TBuild = timeIt(
          [&] { Jit = std::make_unique<BlazeSim>(M2, R2.TopUnit, BOpts); });
      if (Rep == 0)
        CompileMs = TBuild * 1e3;
      timeRun([&] { S2 = Jit->run(); }, TJit, JitCal);
    }

    // --batch: N instances of the shared program, once sequentially
    // (jobs=1 — the compile-amortized baseline a naive loop would pay)
    // and once on the worker pool (jobs = hardware threads). Both use
    // the Blaze engine with its one-time JIT compile; only the run
    // phase is timed, so the column isolates the fleet's scaling.
    double TBatchSeq = 0, TBatchPool = 0;
    if (BatchN) {
      auto runFleet = [&](unsigned Jobs) {
        BatchOptions BO;
        BO.N = BatchN;
        BO.Jobs = Jobs;
        BO.Engine = "blaze";
        BO.Base.TraceMode = Opts.TraceMode;
        BatchResult BR = runBatch(M2, R2.TopUnit, BO);
        if (!BR.Ok)
          printf("%-16s batch error: %s\n", D.PaperName.c_str(),
                 BR.Error.c_str());
        return BR.Ok ? BR.RunSeconds : 0.0;
      };
      TBatchSeq = 1e300;
      TBatchPool = 1e300;
      for (unsigned Rep = 0; Rep != Reps; ++Rep) {
        TBatchSeq = std::min(TBatchSeq, runFleet(1));
        TBatchPool = std::min(TBatchPool, runFleet(0));
      }
    }

    const char *Status = "";
    bool Match = true;
    if (S1.AssertFailures || S2.AssertFailures) {
      Status = "  ASSERTS FAILED";
      Match = false;
    } else if (Verify && Int->trace().digest() != Jit->trace().digest()) {
      Status = "  TRACE MISMATCH";
      Match = false;
    } else if (DumpVcd && WInt.text() != WJit.text()) {
      Status = "  VCD MISMATCH";
      Match = false;
    } else if (Verify) {
      Status = "  traces match";
    }
    if (DumpVcd &&
        !WInt.writeToFile(VcdDir + "/" + D.Key + ".vcd"))
      printf("%-16s cannot write %s/%s.vcd\n", "", VcdDir.c_str(),
             D.Key.c_str());
    Rows.push_back({D.PaperName, D.Iterations, TInt, TJit, IntCal, JitCal,
                    CompileMs, Match, TBatchSeq, TBatchPool,
                    countsOf(S1, S2, LirOps, BlazeLirOps, *Jit)});

    printf("%-16s %5u %10llu %12.3f %12.3f %9.1f %8.1f%s\n",
           D.PaperName.c_str(), locOf(D.Source),
           static_cast<unsigned long long>(D.Iterations), TInt, TJit,
           CompileMs, TJit > 0 ? TInt / TJit : 0.0, Status);
  }
  printf("\nShape note: both engines share one lowered IR (sim/Lir.h) "
         "and one kernel\n(scheduler, signal table, trace). JIT runs "
         "processes as native code (unless\n--no-jit), so its edge over "
         "Int. is process execution. The run columns\nexclude JIT's host "
         "compile (Comp.).\n");
  if (BatchN) {
    double SeqS = 0, PoolS = 0;
    uint64_t FleetCycles = 0;
    printf("\nBatch fleet (N=%u per design, Blaze, compile once; "
           "%u hardware threads):\n",
           BatchN, std::thread::hardware_concurrency());
    printf("%-16s %12s %12s %8s\n", "Design", "Seq [s]", "Pool [s]",
           "Scaling");
    for (const Row &R : Rows) {
      printf("%-16s %12.3f %12.3f %7.2fx\n", R.Name.c_str(), R.BatchSeqS,
             R.BatchPoolS,
             R.BatchPoolS > 0 ? R.BatchSeqS / R.BatchPoolS : 0.0);
      SeqS += R.BatchSeqS;
      PoolS += R.BatchPoolS;
      FleetCycles += BatchN * R.Cycles;
    }
    printf("aggregate: %.0f cycles/s sequential, %.0f cycles/s pooled, "
           "scaling %.2fx\n",
           SeqS > 0 ? FleetCycles / SeqS : 0.0,
           PoolS > 0 ? FleetCycles / PoolS : 0.0,
           PoolS > 0 ? SeqS / PoolS : 0.0);
  }
  if (!JsonPath.empty())
    writeJson(JsonPath, Scale, Rows, BatchN);
  std::string GatePath = argStr(argc, argv, "gate", "");
  if (!GatePath.empty())
    return runGate(Rows, GatePath, argFloat(argc, argv, "gate-tol", 0.05),
                   argFlag(argc, argv, "counts-only"));
  return 0;
}
