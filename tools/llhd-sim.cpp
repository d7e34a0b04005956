//===- tools/llhd-sim.cpp - Simulation driver --------------------------------===//
//
// The llhd-sim tool: the paper's reference-simulator workflow as a
// command-line driver. Reads LLHD assembly (or SystemVerilog through the
// Moore frontend), elaborates the design, simulates it on either engine,
// and optionally dumps a VCD waveform or cross-checks the engines against
// each other.
//
//   llhd-sim design.llhd --vcd=design.vcd --until=500ns
//   llhd-sim counter.sv --top=counter_tb --engine=blaze --stats
//   llhd-sim design.llhd --diff-engines
//
// Every simulation goes through sim/Batch.h: buildProgram() turns the
// engine name into a compiled program and runInstance() runs it. A plain
// run is one instance, --diff-engines one instance per engine, --batch=N
// runBatch()'s N; all of them are reported by report().
//
//===----------------------------------------------------------------------===//

#include "analysis/Connectivity.h"
#include "lint/Lint.h"
#include "sim/Batch.h"
#include "sim/Frontend.h"
#include "sim/Lir.h"

#include <algorithm>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

using namespace llhd;

namespace {

void printUsage() {
  fprintf(stderr,
          "usage: llhd-sim [options] <file.llhd | file.sv | ->\n"
          "\n"
          "  --engine=<e>     interp (default) or blaze\n"
          "  --top=<name>     top entity/module; auto-detected when the\n"
          "                   design has a unique un-instantiated root\n"
          "  --until=<time>   stop at this simulation time, e.g. 500ns\n"
          "  --vcd=<file>     dump a VCD waveform of the run\n"
          "  --diff-engines   run Interp and Blaze and cross-check their\n"
          "                   trace digests (and waveforms, with --vcd);\n"
          "                   nonzero exit on divergence\n"
          "  --no-opt         disable Blaze's pre-compilation pipeline\n"
          "  --jit=<m>        Blaze native code generation: on (default),\n"
          "                   off, or dump (also writes the generated C++\n"
          "                   next to the design as <input>.jit.cpp)\n"
          "  --jit-deopt=<s>  force process units whose name contains <s>\n"
          "                   (\"*\" for all) back to the interpreter\n"
          "  --lint[=error]   run the static design checks (llhd-lint)\n"
          "                   before simulating; abort with exit 86 on\n"
          "                   error findings (--lint=error also promotes\n"
          "                   warnings)\n"
          "  --stats          print run statistics to stderr: one line\n"
          "                   per engine run or batch instance, and with\n"
          "                   a VCD a 'vcd:' line of vars, dumped\n"
          "                   changes and bytes\n"
          "  --list-signals   print the elaborated signal hierarchy and\n"
          "                   exit without simulating\n"
          "  --dump-lir       print the lowered runtime IR (and process\n"
          "                   classification) of every instantiated\n"
          "                   unit, then exit without simulating\n"
          "  --sv, --llhd     force the input language (default: by\n"
          "                   file extension; stdin defaults to .llhd)\n"
          "\n"
          "batched fleet simulation (see DESIGN.md):\n"
          "  --batch=<n>      compile once, simulate n instances over the\n"
          "                   shared program; instance i runs with seed\n"
          "                   --seed + i, and --vcd / --checkpoint write\n"
          "                   per-instance files <path>.<i>; instances\n"
          "                   are reported like plain runs\n"
          "  --jobs=<m>       batch worker threads (default: one per\n"
          "                   hardware thread; 1 = run instances inline)\n"
          "  --seed=<s>       stimulus seed for $random/$urandom\n"
          "                   (default 0); identical seeds reproduce\n"
          "                   bit-identical runs on every engine\n"
          "  +<key>[=<val>]   plusarg, visible to $test$plusargs and\n"
          "                   $plusarg$value in the design\n"
          "\n"
          "run control (see DESIGN.md):\n"
          "  --timeout=<sec>      stop after this much wall-clock time\n"
          "  --max-events=<n>     stop after n scheduled events\n"
          "  --max-deltas=<n>     stop after n processed time slots\n"
          "  --checkpoint=<file>  write the simulation state here: at\n"
          "                       every --checkpoint-every interval and\n"
          "                       once more on any early stop (signal,\n"
          "                       timeout, budget); written atomically\n"
          "  --checkpoint-every=<time>  periodic checkpoint cadence\n"
          "  --resume=<file>      restore a checkpoint and continue; with\n"
          "                       --vcd the dump is appended so the file\n"
          "                       continues byte-identically\n"
          "  SIGINT/SIGTERM finish the current delta cycle, flush the\n"
          "  VCD, write the --checkpoint file if set, and exit 85.\n"
          "\n"
          "exit codes:\n"
          "  0 ok, 1 assertion failed, 2 engine divergence, 64 usage,\n"
          "  65 frontend error, 66 i/o error, 80 wall timeout, 81 event\n"
          "  budget, 82 delta budget, 83 oscillation detected,\n"
          "  84 checkpoint error, 85 interrupted, 86 lint findings;\n"
          "  after simulating, 66 wins over 2, 2 over 1, and 1 over\n"
          "  the first run's stop code\n");
}

/// Raised by the SIGINT/SIGTERM handler; the event loop polls it at
/// instant boundaries and shuts down gracefully.
volatile std::sig_atomic_t GStopRequested = 0;

void onStopSignal(int) { GStopRequested = 1; }

int exitFor(ExitCode C) { return static_cast<int>(C); }

/// Maps an early-stop reason onto its documented exit code.
ExitCode exitCodeFor(StopReason R) {
  switch (R) {
  case StopReason::None: return ExitCode::Ok;
  case StopReason::Interrupted: return ExitCode::Interrupted;
  case StopReason::WallTimeout: return ExitCode::WallTimeout;
  case StopReason::EventBudget: return ExitCode::EventBudget;
  case StopReason::DeltaBudget: return ExitCode::DeltaBudget;
  case StopReason::Oscillation: return ExitCode::Oscillation;
  case StopReason::CheckpointError: return ExitCode::CheckpointError;
  }
  return ExitCode::Ok;
}

/// Reads all of \p Path (a checkpoint image) into \p Out; false when it
/// cannot be opened.
bool readFile(const std::string &Path, std::vector<uint8_t> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return true;
}

/// The command line. What reaches the library lives in BO; the rest
/// selects what the driver does.
struct DriverConfig {
  BatchOptions BO;
  std::string ResumePath;  ///< --resume source (image loaded into BO).
  bool Batch = false;      ///< --batch=<n> (fleet size in BO.N).
  bool DiffEngines = false;
  bool Stats = false;
  bool ListSignals = false;
  bool DumpLir = false;
  bool Lint = false;       ///< --lint: static checks before simulating.
  bool LintWerror = false; ///< --lint=error: promote warnings too.

  DriverConfig() { BO.Engine = "interp"; }
};

/// Where Blaze's shared object came from, for the `blaze jit:` line.
const char *objectSourceName(jit::ObjectSource S) {
  switch (S) {
  case jit::ObjectSource::Memory:
    return "memory";
  case jit::ObjectSource::Disk:
    return "disk";
  case jit::ObjectSource::Compiled:
    return "compiled";
  case jit::ObjectSource::None:
    break;
  }
  return "none";
}

void printJitStats(const jit::JitStats &J) {
  fprintf(stderr,
          "blaze jit: %u native unit(s), %u deopt(s), %u native / "
          "%u interpreted instance(s), codegen %.1f ms, host compile "
          "%.1f ms (object: %s, %u shard(s)), probe sites %u direct / %u "
          "resolved per access\n",
          J.NativeUnits, J.DeoptUnits, J.NativeProcs, J.InterpProcs,
          J.CodegenSeconds * 1000, J.HostCompileSeconds * 1000,
          objectSourceName(J.Object), J.Shards, J.DirectPrbs,
          J.ResolvedPrbs);
  for (const auto &[U, R] : J.Deopts)
    fprintf(stderr, "blaze jit: deopt @%s: %s\n", U.c_str(), R.c_str());
}

/// Cross-references an oscillation with the static analysis: the loop
/// the runtime guard caught is usually visible to llhd-lint's comb-loop
/// check without running the design at all, with the full cycle named.
void printOscillationHint(DesignSource &In) {
  Elaborated E;
  if (!In.elaborate(In.File + ".oschint", E, /*Quiet=*/true))
    return;
  DiagnosticEngine::Options LOpts;
  for (const CheckInfo &C : allChecks())
    if (std::string(C.Id) != "comb-loop")
      LOpts.SeverityOverrides[C.Id] = Severity::Ignore;
  DiagnosticEngine DE(LOpts);
  DesignAnalysisManager AM;
  lintDesign(E.D, AM, DE);
  for (const Diagnostic &Dg : DE.diagnostics())
    fprintf(stderr, "llhd-sim: hint: [%s] %s: %s\n", Dg.CheckId.c_str(),
            Dg.Location.c_str(), Dg.Message.c_str());
  if (!DE.diagnostics().empty())
    fprintf(stderr, "llhd-sim: hint: llhd-lint reports this statically "
                    "(check 'comb-loop'); run it for the full cycle\n");
}

/// One simulation to report on: a plain run, one engine of
/// --diff-engines, or one batch instance.
struct Run {
  std::string Label; ///< Engine name, or "batch[<i>] (seed <s>)".
  BatchInstance R;
  std::string Vcd; ///< --diff-engines: the captured waveform.
};

/// The one reporter: prints the stats, error, assertion and stop lines
/// of every run, the oscillation hint and the --diff-engines verdict,
/// and returns the exit code. Precedence: an unwritable artifact (66),
/// then divergence (2), then assertion failures (1), then the first
/// stop reason in run order.
int report(const std::vector<Run> &Runs, const DriverConfig &Cfg,
           DesignSource &In) {
  bool IoFailed = false, Asserted = false, Oscillated = false;
  bool JitShown = false; // One program per invocation reaches the JIT.
  ExitCode Stopped = ExitCode::Ok;
  for (const Run &Ru : Runs) {
    const BatchInstance &R = Ru.R;
    const SimStats &S = R.Stats;
    const char *L = Ru.Label.c_str();
    if (Cfg.Stats && R.Instances != 0) { // 0: the run never started.
      if (R.Jit.Enabled && !JitShown) {
        printJitStats(R.Jit);
        JitShown = true;
      }
      fprintf(stderr,
              "%s: %u signals, %u instances, end time %s, %llu slots, "
              "%llu process runs, %llu entity evals, %llu drives "
              "scheduled (%llu word lane), %llu changes, digest "
              "%016llx%s%s\n",
              L, R.Signals, R.Instances, S.EndTime.toString().c_str(),
              (unsigned long long)S.Steps, (unsigned long long)S.ProcessRuns,
              (unsigned long long)S.EntityEvals,
              (unsigned long long)S.DrivesScheduled,
              (unsigned long long)S.WordDrives, (unsigned long long)R.Changes,
              (unsigned long long)R.Digest, S.Finished ? ", finished" : "",
              S.DeltaOverflow ? ", DELTA OVERFLOW" : "");
      if (R.Vcd)
        fprintf(stderr, "vcd: %u vars, %llu changes dumped, %llu bytes\n",
                R.VcdVars, (unsigned long long)R.VcdChanges,
                (unsigned long long)R.VcdBytes);
    }
    if (!R.Error.empty()) {
      fprintf(stderr, "llhd-sim: %s: %s\n", L, R.Error.c_str());
      // Checkpoint failures exit through their stop reason (84).
      IoFailed |= S.Stop != StopReason::CheckpointError;
    }
    if (S.AssertFailures != 0) {
      fprintf(stderr, "llhd-sim: %s: %llu assertion failure(s)\n", L,
              (unsigned long long)S.AssertFailures);
      Asserted = true;
    }
    if (S.Stop == StopReason::None)
      continue;
    fprintf(stderr, "llhd-sim: %s: stopped at %s: %s\n", L,
            S.EndTime.toString().c_str(), stopReasonName(S.Stop));
    if (S.Stop == StopReason::Oscillation) {
      auto join = [](const std::vector<std::string> &V) {
        std::string J;
        for (const std::string &N : V)
          J += (J.empty() ? "" : ", ") + N;
        return J;
      };
      fprintf(stderr, "llhd-sim: %s: cycling process(es): %s\n", L,
              join(S.OscProcs).c_str());
      fprintf(stderr, "llhd-sim: %s: cycling signal(s): %s\n", L,
              join(S.OscSigs).c_str());
      Oscillated = true;
    }
    if (Stopped == ExitCode::Ok)
      Stopped = exitCodeFor(S.Stop);
  }
  if (Oscillated)
    printOscillationHint(In);

  bool Diverged = false;
  if (Cfg.DiffEngines) {
    const Run &Ref = Runs.front();
    for (const Run &O : Runs) {
      if (O.R.Digest == Ref.R.Digest && O.R.Changes == Ref.R.Changes &&
          O.R.Stats.EndTime == Ref.R.Stats.EndTime && O.Vcd == Ref.Vcd)
        continue;
      Diverged = true;
      fprintf(stderr,
              "llhd-sim: DIVERGENCE %s vs %s: digest %016llx/%016llx, "
              "changes %llu/%llu, vcd %s\n",
              Ref.Label.c_str(), O.Label.c_str(),
              (unsigned long long)Ref.R.Digest, (unsigned long long)O.R.Digest,
              (unsigned long long)Ref.R.Changes,
              (unsigned long long)O.R.Changes,
              O.Vcd == Ref.Vcd ? "identical" : "DIFFERS");
    }
    if (!Diverged) {
      std::string Names;
      for (const char *E : EngineNames)
        Names += (Names.empty() ? "" : "/") + std::string(E);
      printf("llhd-sim: traces match across %s "
             "(%llu changes, digest %016llx)\n",
             Names.c_str(), (unsigned long long)Ref.R.Changes,
             (unsigned long long)Ref.R.Digest);
    }
  }
  if (IoFailed)
    return exitFor(ExitCode::IoError);
  if (Diverged)
    return exitFor(ExitCode::Divergence);
  if (Asserted)
    return exitFor(ExitCode::AssertFailed);
  return exitFor(Stopped);
}

} // namespace

int main(int Argc, char **Argv) {
  DriverConfig Cfg;
  BatchOptions &BO = Cfg.BO;
  SimOptions &Opts = BO.Base;
  DesignSource In("llhd-sim");

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I], V;
    // Matches "<Name><value>" (Name ends in '='), leaving the value in V.
    auto opt = [&](const char *Name) {
      if (A.rfind(Name, 0) != 0)
        return false;
      V = A.substr(strlen(Name));
      return true;
    };
    // Reads V as a whole number into Out: digits first (strtoull would
    // wrap "-1"), in range, nothing trailing, nonzero unless AllowZero.
    auto number = [&](auto &Out, int Base = 10, bool AllowZero = false) {
      char *End = nullptr;
      unsigned long long N = strtoull(V.c_str(), &End, Base);
      Out = static_cast<std::remove_reference_t<decltype(Out)>>(N);
      return isdigit(static_cast<unsigned char>(V[0])) && *End == '\0' &&
             Out == N && (N || AllowZero);
    };
    bool Ok = true;
    Time Every;
    if (A == "-h" || A == "--help") {
      printUsage();
      return 0;
    } else if (opt("--engine=")) {
      BO.Engine = V;
      Ok = std::find(std::begin(EngineNames), std::end(EngineNames), V) !=
           std::end(EngineNames);
    } else if (opt("--top=")) {
      In.Top = V;
    } else if (opt("--until=")) {
      Ok = Time::parse(V, Opts.MaxTime);
    } else if (opt("--vcd=")) {
      BO.VcdPath = V;
    } else if (opt("--jit=")) {
      Ok = V == "on" || V == "off" || V == "dump";
      BO.Jit.M = V == "off"    ? jit::JitOptions::Mode::Off
                 : V == "dump" ? jit::JitOptions::Mode::Dump
                               : jit::JitOptions::Mode::On;
    } else if (opt("--jit-deopt=")) {
      BO.Jit.ForceDeopt = V;
    } else if (opt("--timeout=")) {
      char *End = nullptr;
      Opts.RC.WallTimeoutSec = strtod(V.c_str(), &End);
      Ok = *End == '\0' && Opts.RC.WallTimeoutSec > 0;
    } else if (opt("--max-events=")) {
      Ok = number(Opts.RC.MaxEvents);
    } else if (opt("--max-deltas=")) {
      Ok = number(Opts.RC.MaxSteps);
    } else if (opt("--checkpoint=")) {
      BO.CheckpointPath = V;
    } else if (opt("--checkpoint-every=")) {
      Ok = Time::parse(V, Every) && Every.Fs != 0;
      Opts.RC.CheckpointEveryFs = Every.Fs;
    } else if (opt("--resume=")) {
      Cfg.ResumePath = V;
    } else if (opt("--batch=")) {
      Ok = number(BO.N);
      Cfg.Batch = true;
    } else if (opt("--jobs=")) {
      Ok = number(BO.Jobs);
    } else if (opt("--seed=")) {
      Ok = number(Opts.Seed, 0, /*AllowZero=*/true);
    } else if (A.size() > 1 && A[0] == '+') {
      // Plusarg: +key or +key=value, recorded verbatim for
      // $test$plusargs / $plusarg$value.
      std::string Body = A.substr(1);
      size_t Eq = Body.find('=');
      if (Eq == std::string::npos)
        Opts.Plusargs.emplace_back(Body, "");
      else
        Opts.Plusargs.emplace_back(Body.substr(0, Eq), Body.substr(Eq + 1));
    } else if (A == "--diff-engines") {
      Cfg.DiffEngines = true;
    } else if (A == "--no-opt") {
      BO.Optimize = false;
    } else if (A == "--lint") {
      Cfg.Lint = true;
    } else if (A == "--lint=error") {
      Cfg.Lint = true;
      Cfg.LintWerror = true;
    } else if (A == "--stats") {
      Cfg.Stats = true;
    } else if (A == "--list-signals") {
      Cfg.ListSignals = true;
    } else if (A == "--dump-lir") {
      Cfg.DumpLir = true;
    } else if (A == "--sv") {
      In.Lang = DesignSource::Language::Sv;
    } else if (A == "--llhd") {
      In.Lang = DesignSource::Language::Llhd;
    } else if (!A.empty() && A[0] == '-' && A != "-") {
      fprintf(stderr, "llhd-sim: unknown option '%s'\n", A.c_str());
      printUsage();
      return exitFor(ExitCode::Usage);
    } else if (In.File.empty()) {
      In.File = A;
    } else {
      fprintf(stderr, "llhd-sim: more than one input file\n");
      return exitFor(ExitCode::Usage);
    }
    if (!Ok) {
      fprintf(stderr, "llhd-sim: invalid value in '%s' (see --help)\n",
              A.c_str());
      return exitFor(ExitCode::Usage);
    }
  }
  const std::string &File = In.File;
  if (File.empty()) {
    printUsage();
    return exitFor(ExitCode::Usage);
  }
  if (Opts.RC.CheckpointEveryFs && BO.CheckpointPath.empty()) {
    fprintf(stderr,
            "llhd-sim: --checkpoint-every requires --checkpoint=<file>\n");
    return exitFor(ExitCode::Usage);
  }
  if (Cfg.DiffEngines &&
      (!BO.CheckpointPath.empty() || !Cfg.ResumePath.empty())) {
    // Diff mode runs every engine over one artifact set; checkpointing
    // would interleave their images and resume cannot know which run.
    fprintf(stderr,
            "llhd-sim: --diff-engines is incompatible with --checkpoint/"
            "--resume\n");
    return exitFor(ExitCode::Usage);
  }
  if (Cfg.Batch && (Cfg.DiffEngines || !Cfg.ResumePath.empty())) {
    // A fleet shares one program and runs N fresh instances; resuming a
    // single checkpoint into N runs (or diffing engines per instance) is
    // a different workflow.
    fprintf(stderr,
            "llhd-sim: --batch is incompatible with --diff-engines/"
            "--resume\n");
    return exitFor(ExitCode::Usage);
  }
  if (!Cfg.ResumePath.empty() &&
      !readFile(Cfg.ResumePath, BO.Resume.emplace())) {
    fprintf(stderr, "llhd-sim: cannot read checkpoint '%s'\n",
            Cfg.ResumePath.c_str());
    return exitFor(ExitCode::IoError);
  }
  // A checkpoint file is also written on every early stop.
  Opts.RC.CheckpointOnStop = !BO.CheckpointPath.empty();
  // Dump mode writes the generated C++ next to the design.
  BO.Jit.DumpPath = (File == "-" ? "stdin" : File) + ".jit.cpp";

  // Graceful shutdown: SIGINT/SIGTERM raise the stop flag; the event
  // loop finishes the current delta cycle, flushes the waveform, writes
  // the final checkpoint if requested, and the driver exits 85. The
  // loop polls the flag at every instant boundary, so shutdown is
  // prompt without ever producing a torn artifact.
  {
    struct sigaction SA;
    memset(&SA, 0, sizeof(SA));
    SA.sa_handler = onStopSignal;
    sigaction(SIGINT, &SA, nullptr);
    sigaction(SIGTERM, &SA, nullptr);
    Opts.RC.StopFlag = &GStopRequested;
  }

  if (!In.read())
    return exitFor(ExitCode::IoError);

  if (Cfg.DumpLir) {
    Elaborated E;
    if (!In.elaborate(File, E))
      return exitFor(ExitCode::InputError);
    // One lowering per distinct unit, in first-instantiation order --
    // exactly what the engines execute.
    LirCache Cache;
    std::vector<Unit *> Seen;
    for (const UnitInstance &UI : E.D.Instances) {
      if (std::find(Seen.begin(), Seen.end(), UI.U) != Seen.end())
        continue;
      Seen.push_back(UI.U);
      fputs(Cache.get(UI.U).dump().c_str(), stdout);
    }
    return 0;
  }

  if (Cfg.ListSignals) {
    Elaborated E;
    if (!In.elaborate(File, E))
      return exitFor(ExitCode::InputError);
    const SignalTable &Sigs = E.D.Signals;
    printf("%u signals, %zu instances under @%s\n", Sigs.size(),
           E.D.Instances.size(), E.Top.c_str());
    for (SignalId S = 0; S != Sigs.size(); ++S) {
      SignalId Canon = Sigs.canonical(S);
      std::string Alias =
          Canon != S ? " (con -> " + Sigs.name(Canon) + ")" : "";
      printf("  %4u  %-40s %s%s\n", S, Sigs.name(S).c_str(),
             Sigs.value(Canon).toString().c_str(), Alias.c_str());
    }
    return 0;
  }

  // --lint gate: run the static design checks once, before any engine.
  // Error-severity findings abort the run with exit 86 -- they describe
  // designs whose simulation results are misleading (oscillating loops,
  // conflicting drivers), so refusing to simulate is the safe default.
  if (Cfg.Lint) {
    Elaborated E;
    if (!In.elaborate(File + ".lint", E))
      return exitFor(ExitCode::InputError);
    DiagnosticEngine::Options LOpts;
    LOpts.WarningsAsErrors = Cfg.LintWerror;
    DiagnosticEngine DE(LOpts);
    DesignAnalysisManager AM;
    lintDesign(E.D, AM, DE);
    std::string Out = DE.render();
    if (!Out.empty())
      fputs(Out.c_str(), stderr);
    if (DE.failed()) {
      fprintf(stderr, "llhd-sim: not simulating: %s\n",
              exitCodeName(ExitCode::LintFindings));
      return exitFor(ExitCode::LintFindings);
    }
  }

  std::vector<Run> Runs;
  // Batched fleet simulation: one program build, N instances on a
  // worker pool (sim/Batch.h). Per-instance artifacts land next to the
  // requested paths as <path>.<instance>.
  if (Cfg.Batch) {
    std::string Top;
    std::unique_ptr<Module> M = In.build(File, Top);
    if (!M)
      return exitFor(ExitCode::InputError);
    BatchResult R = runBatch(*M, Top, BO);
    if (!R.Error.empty()) {
      fprintf(stderr, "llhd-sim: %s: %s\n", BO.Engine.c_str(),
              R.Error.c_str());
      return exitFor(ExitCode::InputError);
    }
    uint64_t Slots = 0;
    for (BatchInstance &BI : R.Instances) {
      Slots += BI.Stats.Steps;
      std::string Label = "batch[" + std::to_string(BI.Index) + "] (seed " +
                          std::to_string(Opts.Seed + BI.Index) + ")";
      Runs.push_back({std::move(Label), std::move(BI), ""});
    }
    int Exit = report(Runs, Cfg, In);
    if (Cfg.Stats)
      fprintf(stderr,
              "batch: %u instance(s), build %.3fs (once), run %.3fs, "
              "%llu slots total\n",
              BO.N, R.BuildSeconds, R.RunSeconds, (unsigned long long)Slots);
    return Exit;
  }

  // One instance of the selected engine, or of every engine for
  // --diff-engines, each over its own freshly built module.
  std::vector<std::string> Engines(std::begin(EngineNames),
                                   std::end(EngineNames));
  if (!Cfg.DiffEngines)
    Engines = {BO.Engine};
  for (const std::string &E : Engines) {
    std::string Top, Error;
    std::unique_ptr<Module> M = In.build(File + "." + E, Top);
    if (!M)
      return exitFor(ExitCode::InputError);
    BatchOptions EO = BO;
    EO.Engine = E;
    BatchProgram P = buildProgram(*M, Top, EO, Error);
    if (!P) {
      fprintf(stderr, "llhd-sim: %s: %s\n", E.c_str(), Error.c_str());
      return exitFor(ExitCode::InputError);
    }
    // Diff mode captures each dump to byte-compare them; a plain run
    // streams to the file (bounded memory), opened only now that the
    // input has built so a frontend error keeps a previous good dump.
    // A resumed run appends: the interrupted run's dump already holds
    // everything up to the checkpoint instant, and the writer picks up
    // without re-emitting the header.
    std::ostringstream Captured;
    std::ofstream VcdOut;
    std::ostream *Vcd = nullptr;
    if (Cfg.DiffEngines) {
      Vcd = &Captured;
    } else if (!BO.VcdPath.empty()) {
      VcdOut.open(BO.VcdPath, BO.Resume ? std::ios::binary | std::ios::app
                                        : std::ios::binary);
      if (!VcdOut) {
        fprintf(stderr, "llhd-sim: cannot write '%s'\n",
                BO.VcdPath.c_str());
        return exitFor(ExitCode::IoError);
      }
      Vcd = &VcdOut;
    }
    Runs.push_back({E, runInstance(P, EO, Opts.Seed, Vcd, BO.CheckpointPath),
                    Captured.str()});
  }
  // --diff-engines --vcd keeps the reference engine's (interp's) dump.
  if (Cfg.DiffEngines && !BO.VcdPath.empty()) {
    std::ofstream VcdOut(BO.VcdPath, std::ios::binary);
    VcdOut << Runs.front().Vcd;
    VcdOut.close();
    if (VcdOut.fail())
      Runs.front().R.Error = "cannot write '" + BO.VcdPath + "'";
  }
  return report(Runs, Cfg, In);
}
