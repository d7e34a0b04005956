//===- perfbench/suite.cpp - One process of the suite benchmark -----------===//
//
// Takes the ten Table-2 designs (designs::allDesigns) from SystemVerilog
// text to a verified trace digest on one engine configuration, on one
// thread, and prints one JSON object as the last line of stdout.
// perfbench/run.py drives it: it picks the workload, spawns the
// processes, feeds the goldens on stdin and aggregates the results (see
// perfbench/README.md).
//
//   --mode=cold        Blaze (optimise + JIT); every host compile is paid
//                      here, so the caller must leave $LLHD_JIT_CACHE unset.
//   --mode=warm        Blaze (optimise + JIT); objects come from the
//                      $LLHD_JIT_CACHE directory a warm-up process filled.
//   --mode=interp-vcd  InterpSim (no optimisation, no JIT) with the VCD
//                      streamed into an in-memory hashing sink.
//
// Setup builds every design once and arms an engine over it. Then rounds
// run every design once, in an order drawn from --seed, until --seconds
// have passed (at least --min-rounds rounds); each design keeps its
// fastest run. The engine for the next round is armed outside the timed
// region, and nothing in a timed region writes a file except the host
// compiler during a cold setup.
//
// --trace=1 builds each design through the same library calls as
// BlazeSim::buildProgram, but step by step from outside, so every layer
// gets a span; spans stay in memory and are written once at the end.
//
// Goldens arrive on stdin, one design per line:
//   <key> <digest hex> <end fs> <vcd hash hex> <native units>
// --regen prints fresh goldens (from InterpSim) as JSON instead.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "asm/Printer.h"
#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "jit/Codegen.h"
#include "jit/HostCompiler.h"
#include "moore/Compiler.h"
#include "passes/Passes.h"
#include "sim/Program.h"
#include "sim/Wave.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <streambuf>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/resource.h>

using namespace llhd;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

enum class Mode { Cold, Warm, InterpVcd };

struct Config {
  Mode M = Mode::Warm;
  double Scale = 0.01;
  uint64_t Seed = 0;
  double Seconds = 0;
  unsigned MinRounds = 1;
  bool Trace = false;
  std::string SpansPath;

  bool blaze() const { return M != Mode::InterpVcd; }
  bool wave() const { return M == Mode::InterpVcd; }
};

/// The VCD sink: folds every byte into an FNV-1a hash and keeps none, so
/// a timed run does no I/O and holds no growing buffer.
class HashBuf : public std::streambuf {
public:
  uint64_t Hash = 14695981039346656037ull;
  uint64_t Bytes = 0;

protected:
  std::streamsize xsputn(const char *S, std::streamsize N) override {
    for (std::streamsize I = 0; I != N; ++I) {
      Hash ^= static_cast<unsigned char>(S[I]);
      Hash *= 1099511628211ull;
    }
    Bytes += N;
    return N;
  }
  int_type overflow(int_type C) override {
    if (!traits_type::eq_int_type(C, traits_type::eof())) {
      char Ch = traits_type::to_char_type(C);
      xsputn(&Ch, 1);
    }
    return traits_type::not_eof(C);
  }
};

struct Golden {
  uint64_t Digest = 0, EndFs = 0, VcdHash = 0;
  unsigned NativeUnits = 0;
};

std::map<std::string, Golden> readGoldens(FILE *In) {
  std::map<std::string, Golden> Out;
  char Key[64];
  unsigned long long D, E, V;
  unsigned N;
  while (fscanf(In, "%63s %llx %llu %llx %u", Key, &D, &E, &V, &N) == 5)
    Out[Key] = {D, E, V, N};
  return Out;
}

/// One span of the traced run. Setup spans of a design share its op id;
/// each simulation (one design run once) is its own op.
struct Span {
  std::string Name;
  double Start, End;
  int Parent;
  std::string Op;
};

class Tracer {
public:
  int open(const std::string &Name, int Parent, const std::string &Op) {
    double T = std::chrono::duration<double>(Clock::now() - Epoch).count();
    Spans.push_back({Name, T, T, Parent, Op});
    return static_cast<int>(Spans.size()) - 1;
  }
  double close(int I) {
    Spans[I].End =
        std::chrono::duration<double>(Clock::now() - Epoch).count();
    return Spans[I].End - Spans[I].Start;
  }
  template <typename Fn>
  void span(const std::string &Name, int Parent, const std::string &Op,
            Fn &&F) {
    int I = open(Name, Parent, Op);
    F();
    close(I);
  }
  double total(const std::string &Name) const {
    double S = 0;
    for (const Span &Sp : Spans)
      if (Sp.Name == Name)
        S += Sp.End - Sp.Start;
    return S;
  }
  bool write(const std::string &Path) const {
    FILE *F = fopen(Path.c_str(), "w");
    if (!F)
      return false;
    for (const Span &S : Spans)
      fprintf(F,
              "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
              "\"parent\": %d, \"op\": \"%s\"}\n",
              S.Name.c_str(), S.Start, S.End, S.Parent, S.Op.c_str());
    return fclose(F) == 0;
  }

private:
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
};

/// One design: its module, its built program and an engine armed to run.
/// Members are ordered so the engine dies before its VCD writer, the
/// writer before its sink, and the program before the Context it uses.
struct Bench {
  designs::DesignInfo Info;
  const Golden *G = nullptr;
  std::unique_ptr<Context> Ctx;
  std::unique_ptr<Module> M;
  std::shared_ptr<const LirProgram> Prog;
  std::unique_ptr<HashBuf> Buf;
  std::unique_ptr<std::ostream> OS;
  std::unique_ptr<WaveWriter> W;
  std::unique_ptr<BlazeSim> Blz;
  std::unique_ptr<InterpSim> Int;

  double SetupS = 0;
  double BestRunS = std::numeric_limits<double>::infinity();
  double BestBareS = std::numeric_limits<double>::infinity();
  bool Published = false; ///< Setup added an object to the cache dir.
};

/// Builds a fresh engine over B.Prog, with the VCD observer when \p Wave.
void arm(Bench &B, const Config &C, bool Wave) {
  B.Blz.reset();
  B.Int.reset();
  B.W.reset();
  B.OS.reset();
  B.Buf.reset();
  SimOptions O;
  O.TraceMode = Trace::Mode::Hash;
  O.Seed = C.Seed;
  if (Wave) {
    B.Buf = std::make_unique<HashBuf>();
    B.OS = std::make_unique<std::ostream>(B.Buf.get());
    B.W = std::make_unique<WaveWriter>();
    B.W->streamTo(*B.OS);
    O.Wave = B.W.get();
  }
  if (C.blaze())
    B.Blz = std::make_unique<BlazeSim>(B.Prog, O);
  else
    B.Int = std::make_unique<InterpSim>(B.Prog, O);
}

SimStats runArmed(Bench &B) { return B.Blz ? B.Blz->run() : B.Int->run(); }

uint64_t armedDigest(const Bench &B) {
  return B.Blz ? B.Blz->trace().digest() : B.Int->trace().digest();
}

/// Checks one finished simulation; returns "" when it passes.
std::string verify(const Bench &B, const SimStats &S, const Config &C) {
  char Msg[160];
  const Golden *G = B.G;
  if (!G)
    return "no golden";
  if (S.AssertFailures) {
    snprintf(Msg, sizeof(Msg), "%" PRIu64 " assertion failures",
             S.AssertFailures);
    return Msg;
  }
  if (S.Stop != StopReason::None || S.DeltaOverflow)
    return "stopped early";
  if (armedDigest(B) != G->Digest) {
    snprintf(Msg, sizeof(Msg), "trace digest %016" PRIx64 " != golden %016"
             PRIx64, armedDigest(B), G->Digest);
    return Msg;
  }
  if (S.EndTime.Fs != G->EndFs) {
    snprintf(Msg, sizeof(Msg), "end time %" PRIu64 " fs != golden %" PRIu64,
             S.EndTime.Fs, G->EndFs);
    return Msg;
  }
  if (C.wave() && B.Buf->Hash != G->VcdHash) {
    snprintf(Msg, sizeof(Msg), "vcd hash %016" PRIx64 " != golden %016"
             PRIx64, B.Buf->Hash, G->VcdHash);
    return Msg;
  }
  if (C.blaze()) {
    const jit::JitStats &J = B.Blz->jitStats();
    if (!J.Warning.empty() || (G->NativeUnits && !J.Compiled))
      return "jit fell back to interpretation";
    if (J.NativeUnits < G->NativeUnits) {
      snprintf(Msg, sizeof(Msg), "%u native units < golden %u",
               J.NativeUnits, G->NativeUnits);
      return Msg;
    }
  }
  if (B.Published)
    return "setup published a new object into the JIT cache";
  return "";
}

uint64_t countInsts(const Module &M) {
  uint64_t N = 0;
  for (const auto &U : M.units())
    for (const BasicBlock *BB : U->blocks())
      N += BB->size();
  return N;
}

unsigned countEntries(const std::string &Dir) {
  unsigned N = 0;
  if (DIR *D = opendir(Dir.c_str())) {
    while (dirent *E = readdir(D))
      N += E->d_name[0] != '.';
    closedir(D);
  }
  return N;
}

std::string jitCacheDir() {
  const char *E = getenv("LLHD_JIT_CACHE");
  return E ? E : "";
}

/// Per-layer totals of the traced run (seconds and counts).
using Layers = std::map<std::string, double>;

/// The user's path: source text to an armed engine through the public
/// one-call build functions. Returns false + \p Err on a build failure.
bool setupPlain(Bench &B, const Config &C, std::string &Err) {
  auto T0 = Clock::now();
  moore::CompileResult R = moore::compileSystemVerilog(
      B.Info.Source, B.Info.TopModule, *B.M);
  if (!R.Ok) {
    Err = "moore: " + R.Error;
    return false;
  }
  if (C.blaze()) {
    BlazeSim::BlazeOptions BO;
    BO.Jit.M = jit::JitOptions::Mode::On;
    B.Prog = BlazeSim::buildProgram(*B.M, R.TopUnit, BO, Err);
    if (!B.Prog)
      return false;
  } else {
    Design D = elaborate(*B.M, R.TopUnit);
    if (!D.ok()) {
      Err = "elaborate: " + D.Error;
      return false;
    }
    B.Prog = LirProgram::build(std::move(D));
  }
  arm(B, C, C.wave());
  B.SetupS = since(T0);
  return true;
}

/// The same build, one span per layer. For Blaze it mirrors
/// BlazeSim::buildProgram and JitModule::compile: clone, optimise,
/// elaborate, lower with the JIT off, plan + emit the translation unit,
/// host-compile it. The runnable program is then rebuilt with the JIT on
/// (the host compile is a hit in the process-wide cache by then); that
/// rebuild is tracing overhead and sits outside the layer spans.
bool setupTraced(Bench &B, const Config &C, Tracer &T, Layers &L,
                 std::string &Err) {
  const std::string Op = B.Info.Key + "/setup";
  auto T0 = Clock::now();
  int Root = T.open("setup", -1, Op);
  moore::CompileResult R;
  T.span("moore.compile", Root, Op, [&] {
    R = moore::compileSystemVerilog(B.Info.Source, B.Info.TopModule, *B.M);
  });
  if (!R.Ok) {
    Err = "moore: " + R.Error;
    return false;
  }
  L["moore.insts"] += countInsts(*B.M);

  Module *Sim = B.M.get();
  std::shared_ptr<Module> Clone;
  if (C.blaze()) {
    ParseResult Parsed;
    T.span("asm.clone", Root, Op, [&] {
      Clone = std::make_shared<Module>(*B.Ctx, B.M->name() + ".blaze");
      Parsed = parseModule(printModule(*B.M), *Clone);
    });
    if (!Parsed.Ok) {
      Err = "clone: " + Parsed.Error;
      return false;
    }
    T.span("passes.opt", Root, Op, [&] { runStandardOptimizations(*Clone); });
    L["passes.insts_after"] += countInsts(*Clone);
    Sim = Clone.get();
  }

  Design D;
  T.span("sim.elaborate", Root, Op, [&] { D = elaborate(*Sim, R.TopUnit); });
  if (!D.ok()) {
    Err = "elaborate: " + D.Error;
    return false;
  }
  L["sim.signals"] += D.Signals.size();
  std::shared_ptr<const LirProgram> Lowered;
  T.span("lir.lower", Root, Op,
         [&] { Lowered = LirProgram::build(std::move(D), {}, Clone); });
  Lowered->Cache.forEach(
      [&](const Unit *, const LirUnit &LU) { L["lir.ops"] += LU.Ops.size(); });

  if (!C.blaze()) {
    B.Prog = Lowered;
  } else {
    // Distinct process units in first-instantiation order, as
    // JitModule::compile numbers them.
    std::string Src;
    unsigned Native = 0;
    T.span("jit.codegen", Root, Op, [&] {
      std::set<const LirUnit *> Seen;
      Src = jit::emitPrelude();
      for (const UnitInstance &UI : Lowered->D.Instances) {
        if (!UI.U->isProcess())
          continue;
        const LirUnit *LU = Lowered->Cache.lookup(UI.U);
        if (!Seen.insert(LU).second)
          continue;
        jit::UnitPlan P = jit::planUnit(*LU);
        if (!P.Native) {
          L["jit.deopt_units"] += 1;
          continue;
        }
        Src += jit::emitUnit(P, Native++);
      }
    });
    L["jit.native_units"] += Native;
    L["jit.source_bytes"] += Src.size();
    if (Native) {
      std::string Dir = jitCacheDir();
      unsigned Before = Dir.empty() ? 0 : countEntries(Dir);
      // A failed compile shows up when the rebuilt program is verified.
      T.span("jit.host_compile", Root, Op,
             [&] { jit::HostCompiler::compile(Src); });
      // Every source is new to this process, so it is a miss unless the
      // cache directory already held its object.
      L["jit.cache_misses"] += Dir.empty() || countEntries(Dir) > Before;
    }
    T.span("trace.rebuild", Root, Op, [&] {
      jit::JitOptions J;
      J.M = jit::JitOptions::Mode::On;
      B.Prog = LirProgram::build(elaborate(*Clone, R.TopUnit), J, Clone);
    });
  }
  T.span("engine.bind", Root, Op, [&] { arm(B, C, C.wave()); });
  T.close(Root);
  B.SetupS = since(T0);
  return true;
}

/// The layer spans a traced setup adds up to (everything but the rebuild).
const char *const SetupLayers[] = {
    "moore.compile", "asm.clone", "passes.opt", "sim.elaborate",
    "lir.lower",     "jit.codegen", "jit.host_compile", "engine.bind"};

void appendNum(std::string &Out, const std::string &Key, double V) {
  char Buf[64];
  snprintf(Buf, sizeof(Buf), "%.9g", V);
  if (Out.back() != '{')
    Out += ", ";
  Out += "\"" + Key + "\": " + Buf;
}

double peakRssKb() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss);
}

/// --regen: goldens from the reference engine at --scale, plus the
/// native-unit count Blaze reaches on this host. Blaze's digest must
/// agree with InterpSim's, or the goldens are not written.
int regen(const Config &C) {
  std::string Out = "{";
  for (const designs::DesignInfo &Info : designs::allDesigns(C.Scale)) {
    Context Ctx;
    Module M(Ctx, Info.Key);
    moore::CompileResult R =
        moore::compileSystemVerilog(Info.Source, Info.TopModule, M);
    if (!R.Ok) {
      fprintf(stderr, "%s: %s\n", Info.Key.c_str(), R.Error.c_str());
      return 1;
    }
    HashBuf Buf;
    std::ostream OS(&Buf);
    SimStats S;
    uint64_t Digest;
    {
      WaveWriter W;
      W.streamTo(OS);
      SimOptions O;
      O.Wave = &W;
      InterpSim Int(LirProgram::build(elaborate(M, R.TopUnit)), O);
      S = Int.run();
      Digest = Int.trace().digest();
    }
    BlazeSim::BlazeOptions BO;
    BO.Jit.M = jit::JitOptions::Mode::On;
    BlazeSim Blz(M, R.TopUnit, BO);
    SimStats SB = Blz.run();
    if (S.AssertFailures || SB.AssertFailures ||
        Blz.trace().digest() != Digest || SB.EndTime.Fs != S.EndTime.Fs) {
      fprintf(stderr, "%s: engines disagree or asserts failed\n",
              Info.Key.c_str());
      return 1;
    }
    char Line[256];
    snprintf(Line, sizeof(Line),
             "%s\"%s\": {\"digest\": \"%016" PRIx64 "\", \"end_fs\": %" PRIu64
             ", \"vcd_hash\": \"%016" PRIx64 "\", \"native_units\": %u}",
             Out.size() > 1 ? ", " : "", Info.Key.c_str(), Digest,
             S.EndTime.Fs, Buf.Hash, Blz.jitStats().NativeUnits);
    Out += Line;
  }
  printf("%s}\n", Out.c_str());
  return 0;
}

bool parseArgs(int Argc, char **Argv, Config &C, bool &Regen) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    size_t Eq = A.find('=');
    std::string K = A.substr(0, Eq), V = Eq == A.npos ? "" : A.substr(Eq + 1);
    char *End = nullptr;
    if (K == "--mode") {
      if (V == "cold")
        C.M = Mode::Cold;
      else if (V == "warm")
        C.M = Mode::Warm;
      else if (V == "interp-vcd")
        C.M = Mode::InterpVcd;
      else
        return false;
      continue;
    }
    if (K == "--regen") {
      Regen = true;
      continue;
    }
    if (K == "--spans") {
      C.SpansPath = V;
      continue;
    }
    double D = strtod(V.c_str(), &End);
    if (V.empty() || *End)
      return false;
    if (K == "--scale")
      C.Scale = D;
    else if (K == "--seed")
      C.Seed = static_cast<uint64_t>(D);
    else if (K == "--seconds")
      C.Seconds = D;
    else if (K == "--min-rounds")
      C.MinRounds = static_cast<unsigned>(D);
    else if (K == "--trace")
      C.Trace = D != 0;
    else
      return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  bool Regen = false;
  if (!parseArgs(Argc, Argv, C, Regen)) {
    fprintf(stderr, "usage: %s --mode=cold|warm|interp-vcd --scale=X "
                    "--seed=N --seconds=S [--min-rounds=N] [--trace=0|1] "
                    "[--spans=FILE] [--regen]\n",
            Argv[0]);
    return 64;
  }
  if (Regen)
    return regen(C);
  // A cold run must pay every host compile; a warm run must have the
  // cache directory its warm-up filled.
  if (C.M == Mode::Cold && !jitCacheDir().empty()) {
    fprintf(stderr, "perfbench: cold mode needs $LLHD_JIT_CACHE unset\n");
    return 2;
  }
  if (C.M == Mode::Warm && jitCacheDir().empty()) {
    fprintf(stderr, "perfbench: warm mode needs $LLHD_JIT_CACHE set\n");
    return 2;
  }
  std::map<std::string, Golden> Goldens = readGoldens(stdin);

  std::vector<Bench> Benches;
  uint64_t Cycles = 0;
  for (designs::DesignInfo &Info : designs::allDesigns(C.Scale)) {
    Bench B;
    auto It = Goldens.find(Info.Key);
    B.G = It == Goldens.end() ? nullptr : &It->second;
    Cycles += Info.Iterations;
    B.Info = std::move(Info);
    B.Ctx = std::make_unique<Context>();
    B.M = std::make_unique<Module>(*B.Ctx, B.Info.Key);
    Benches.push_back(std::move(B));
  }

  std::mt19937_64 Rng(C.Seed);
  std::vector<size_t> Order(Benches.size());
  std::iota(Order.begin(), Order.end(), 0);
  Tracer T;
  // Layer counts the traced setup adds to; listed so every workload
  // reports them, zero where a layer is bypassed.
  Layers L;
  for (const char *K : {"moore.insts", "passes.insts_after", "sim.signals",
                        "lir.ops", "jit.native_units", "jit.deopt_units",
                        "jit.source_bytes", "jit.cache_misses"})
    L[K] = 0;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;
  auto fail = [&](const Bench &B, const std::string &Why) {
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(B.Info.Key + ": " + Why);
  };

  // Setup: every design from source text to an armed engine.
  std::shuffle(Order.begin(), Order.end(), Rng);
  std::string CacheDir = jitCacheDir();
  for (size_t I : Order) {
    Bench &B = Benches[I];
    unsigned Before = CacheDir.empty() ? 0 : countEntries(CacheDir);
    std::string Err;
    bool Ok = C.Trace ? setupTraced(B, C, T, L, Err) : setupPlain(B, C, Err);
    if (!Ok) {
      // A design that does not build fails every operation it would run.
      fprintf(stderr, "perfbench: %s: %s\n", B.Info.Key.c_str(), Err.c_str());
      B.Prog.reset();
      continue;
    }
    if (!CacheDir.empty() && countEntries(CacheDir) > Before)
      B.Published = true;
  }

  // Rounds: every design once per round, in a seed-drawn order.
  SimStats Sum;
  uint64_t NativeProcs = 0, InterpProcs = 0, WaveChanges = 0, WaveBytes = 0;
  unsigned Rounds = 0;
  auto T0 = Clock::now();
  while (Rounds < C.MinRounds || (C.Seconds > 0 && since(T0) < C.Seconds)) {
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (size_t I : Order) {
      Bench &B = Benches[I];
      ++Attempted;
      if (!B.Prog) {
        fail(B, "build failed");
        continue;
      }
      std::string Op = B.Info.Key + "/" + std::to_string(Rounds);
      int Sp = C.Trace ? T.open("sim.run", -1, Op) : -1;
      auto TR = Clock::now();
      SimStats S = runArmed(B);
      double Dt = since(TR);
      if (Sp >= 0)
        T.close(Sp);
      B.BestRunS = std::min(B.BestRunS, Dt);
      std::string Why = verify(B, S, C);
      if (!Why.empty())
        fail(B, Why);
      if (Rounds == 0) {
        Sum.Steps += S.Steps;
        Sum.ProcessRuns += S.ProcessRuns;
        Sum.EntityEvals += S.EntityEvals;
        if (B.Blz) {
          NativeProcs += B.Blz->jitStats().NativeProcs;
          InterpProcs += B.Blz->jitStats().InterpProcs;
        } else {
          for (const UnitInstance &UI : B.Prog->D.Instances)
            InterpProcs += UI.U->isProcess();
        }
        if (B.W) {
          WaveChanges += B.W->numDumpedChanges();
          WaveBytes += B.Buf->Bytes;
        }
      }
      if (C.Trace && C.wave()) {
        // The same run without the observer, for wave.overhead_s.
        arm(B, C, false);
        int Bare = T.open("wave.baseline", -1, Op);
        S = runArmed(B);
        B.BestBareS = std::min(B.BestBareS, T.close(Bare));
        if (S.AssertFailures || armedDigest(B) != (B.G ? B.G->Digest : 0))
          fail(B, "run without waves diverged");
      }
      arm(B, C, C.wave());
    }
    ++Rounds;
  }

  double SetupS = 0, RunS = 0, BareS = 0;
  std::string Designs = "{";
  for (const Bench &B : Benches) {
    SetupS += B.SetupS;
    double Run = std::isfinite(B.BestRunS) ? B.BestRunS : 0;
    RunS += Run;
    if (std::isfinite(B.BestBareS))
      BareS += B.BestBareS;
    Designs += Designs.size() > 1 ? ", " : "";
    Designs += "\"" + B.Info.Key + "\": {";
    appendNum(Designs, "setup_s", B.SetupS);
    appendNum(Designs, "run_s", Run);
    Designs += "}";
  }
  Designs += "}";

  std::string Out = "{";
  appendNum(Out, "attempted", static_cast<double>(Attempted));
  appendNum(Out, "failed", static_cast<double>(Failed));
  appendNum(Out, "rounds", Rounds);
  appendNum(Out, "cycles", static_cast<double>(Cycles));
  appendNum(Out, "setup_s", SetupS);
  appendNum(Out, "run_s", RunS);
  appendNum(Out, "peak_rss_kb", peakRssKb());
  Out += ", \"designs\": " + Designs;
  Out += ", \"failures\": [";
  for (size_t I = 0; I != Failures.size(); ++I)
    Out += (I ? ", \"" : "\"") + Failures[I] + "\"";
  Out += "]";
  if (C.Trace) {
    double SpanSetup = 0;
    for (const char *Name : SetupLayers) {
      L[std::string(Name) + "_s"] = T.total(Name);
      SpanSetup += T.total(Name);
    }
    L["setup_spans_s"] = SpanSetup;
    L["sim.run_s"] = RunS;
    L["sim.steps"] = static_cast<double>(Sum.Steps);
    L["sim.process_runs"] = static_cast<double>(Sum.ProcessRuns);
    L["sim.entity_evals"] = static_cast<double>(Sum.EntityEvals);
    L["sim.ns_per_process_run"] =
        Sum.ProcessRuns ? RunS * 1e9 / Sum.ProcessRuns : 0;
    L["jit.native_procs"] = static_cast<double>(NativeProcs);
    L["jit.interp_procs"] = static_cast<double>(InterpProcs);
    L["wave.changes"] = static_cast<double>(WaveChanges);
    L["wave.bytes"] = static_cast<double>(WaveBytes);
    L["wave.overhead_s"] = C.wave() ? RunS - BareS : 0;
    Out += ", \"layers\": {";
    for (const auto &[K, V] : L)
      appendNum(Out, K, V);
    Out += "}";
    if (!C.SpansPath.empty() && !T.write(C.SpansPath))
      fprintf(stderr, "perfbench: cannot write %s\n", C.SpansPath.c_str());
  }
  Out += "}";
  printf("%s\n", Out.c_str());
  return 0;
}
