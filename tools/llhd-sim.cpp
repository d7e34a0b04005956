//===- tools/llhd-sim.cpp - Simulation driver --------------------------------===//
//
// The llhd-sim tool: the paper's reference-simulator workflow as a
// command-line driver. Reads LLHD assembly (or SystemVerilog through the
// Moore frontend), elaborates the design, simulates it on any of the
// three engines, and optionally dumps a VCD waveform or cross-checks the
// engines against each other.
//
//   llhd-sim design.llhd --vcd=design.vcd --until=500ns
//   llhd-sim counter.sv --top=counter_tb --engine=blaze --stats
//   llhd-sim design.llhd --diff-engines
//
//===----------------------------------------------------------------------===//

#include "analysis/Connectivity.h"
#include "asm/Parser.h"
#include "blaze/Blaze.h"
#include "lint/Lint.h"
#include "moore/Compiler.h"
#include "sim/Batch.h"
#include "sim/Interp.h"
#include "sim/Lir.h"
#include "sim/Wave.h"
#include "vsim/CommSim.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace llhd;

namespace {

void printUsage() {
  fprintf(stderr,
          "usage: llhd-sim [options] <file.llhd | file.sv | ->\n"
          "\n"
          "  --engine=<e>     interp (default), blaze, or comm\n"
          "  --top=<name>     top entity/module; auto-detected when the\n"
          "                   design has a unique un-instantiated root\n"
          "  --until=<time>   stop at this simulation time, e.g. 500ns\n"
          "  --vcd=<file>     dump a VCD waveform of the run\n"
          "  --diff-engines   run Interp, Blaze and CommSim and cross-\n"
          "                   check their trace digests (and waveforms,\n"
          "                   with --vcd); nonzero exit on divergence\n"
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
          "  --stats          print run statistics to stderr\n"
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
          "                   per-instance files <path>.<i>\n"
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
          "  84 checkpoint error, 85 interrupted, 86 lint findings\n");
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

bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return static_cast<bool>(In);
}

/// Writes \p Bytes to \p Path through a temporary + rename, so a crash,
/// signal or full disk mid-write never leaves a torn file at the
/// destination — the previous checkpoint stays valid until the new one
/// is completely on disk.
bool writeFileAtomic(const std::string &Path,
                     const std::vector<uint8_t> &Bytes) {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
    Out.flush();
    if (!Out)
      return false;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

/// Everything one engine run produces that the driver reports on.
struct RunOutcome {
  std::string Engine;
  SimStats Stats;
  uint64_t Digest = 0;
  uint64_t Changes = 0;
  unsigned Signals = 0;   ///< Elaborated signal count.
  unsigned Instances = 0; ///< Elaborated unit-instance count.
  std::string Vcd; ///< Empty unless a waveform was requested.
};

struct DriverConfig {
  std::string Engine = "interp";
  std::string Top;
  std::string VcdPath;
  std::string Jit = "on"; ///< Blaze native codegen: on, off, or dump.
  std::string JitDumpPath;
  std::string JitDeopt;        ///< --jit-deopt pattern.
  std::string CheckpointPath;  ///< --checkpoint destination.
  std::string ResumePath;      ///< --resume source.
  std::vector<uint8_t> ResumeBytes; ///< Loaded --resume image.
  bool DiffEngines = false;
  bool NoOpt = false;
  bool Stats = false;
  bool ListSignals = false;
  bool DumpLir = false;
  bool Lint = false;       ///< --lint: static checks before simulating.
  bool LintWerror = false; ///< --lint=error: promote warnings too.
  unsigned Batch = 0;      ///< --batch=<n>: fleet size (0 = single run).
  unsigned Jobs = 0;       ///< --jobs=<m>: batch workers (0 = hw threads).
  SimOptions Opts;
};

/// Finds the unique simulatable root of \p M: a non-declaration process
/// or entity that no other unit instantiates. Returns empty and fills
/// \p Error when there is no unique candidate.
std::string detectTop(const Module &M, std::string &Error) {
  std::vector<const Unit *> Candidates;
  for (const auto &U : M.units()) {
    if (U->isFunction() || U->isDeclaration())
      continue;
    Candidates.push_back(U.get());
  }
  for (const auto &U : M.units())
    for (const BasicBlock *B : U->blocks())
      for (const Instruction *I : B->insts())
        if (I->opcode() == Opcode::InstOp && I->callee())
          Candidates.erase(std::remove(Candidates.begin(), Candidates.end(),
                                       I->callee()),
                          Candidates.end());
  if (Candidates.size() == 1)
    return Candidates.front()->name();
  if (Candidates.empty()) {
    Error = "no top unit found (every process/entity is instantiated); "
            "use --top=<name>";
  } else {
    Error = "multiple top candidates (use --top=<name>):";
    for (const Unit *U : Candidates)
      Error += " @" + U->name();
  }
  return "";
}

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

/// Runs one engine over \p M. \p WantVcd attaches a WaveWriter: with a
/// \p VcdStream it streams there (bounded memory, arbitrary run
/// length), otherwise the text lands in the outcome for comparison.
/// Returns 0 or the exit code of a setup failure (run outcomes — stop
/// reasons, assertion failures — are judged by the caller from Out).
int runEngine(const std::string &Engine, Module &M, const std::string &Top,
              const DriverConfig &Cfg, bool WantVcd,
              std::ostream *VcdStream, RunOutcome &Out) {
  Out.Engine = Engine;
  WaveWriter Wave;
  SimOptions Opts = Cfg.Opts;
  if (WantVcd) {
    Opts.Wave = &Wave;
    if (VcdStream)
      Wave.streamTo(*VcdStream);
  }

  auto inputError = [&](const std::string &Msg) {
    fprintf(stderr, "llhd-sim: %s: %s\n", Engine.c_str(), Msg.c_str());
    return exitFor(ExitCode::InputError);
  };

  // Restore + checkpoint hookup and the run itself, shared across the
  // engines (all three expose options/checkpoint/restore/run).
  auto simulate = [&](auto &Sim) -> int {
    if (!Cfg.ResumePath.empty()) {
      std::string RErr;
      if (!Sim.restore(Cfg.ResumeBytes, RErr)) {
        fprintf(stderr, "llhd-sim: %s: cannot resume from '%s': %s\n",
                Engine.c_str(), Cfg.ResumePath.c_str(), RErr.c_str());
        return exitFor(ExitCode::CheckpointError);
      }
    }
    if (!Cfg.CheckpointPath.empty()) {
      Sim.options().RC.CheckpointOnStop = true;
      Sim.options().RC.Checkpoint = [&Sim, &Cfg](Time) {
        std::vector<uint8_t> Image;
        Sim.checkpoint(Image);
        if (writeFileAtomic(Cfg.CheckpointPath, Image))
          return true;
        fprintf(stderr, "llhd-sim: cannot write checkpoint '%s'\n",
                Cfg.CheckpointPath.c_str());
        return false;
      };
    }
    Out.Stats = Sim.run();
    Out.Digest = Sim.trace().digest();
    Out.Changes = Sim.trace().numChanges();
    Out.Signals = Sim.design().Signals.size();
    Out.Instances = Sim.design().Instances.size();
    return 0;
  };

  int Rc = 0;
  if (Engine == "interp") {
    Design D = elaborate(M, Top);
    if (!D.ok())
      return inputError(D.Error);
    InterpSim Sim(std::move(D), Opts);
    Rc = simulate(Sim);
  } else if (Engine == "blaze") {
    BlazeSim::BlazeOptions BOpts;
    static_cast<SimOptions &>(BOpts) = Opts;
    BOpts.Optimize = !Cfg.NoOpt;
    if (Cfg.Jit == "off")
      BOpts.Jit.M = jit::JitOptions::Mode::Off;
    else if (Cfg.Jit == "dump") {
      BOpts.Jit.M = jit::JitOptions::Mode::Dump;
      BOpts.Jit.DumpPath = Cfg.JitDumpPath;
    } else
      BOpts.Jit.M = jit::JitOptions::Mode::On;
    BOpts.Jit.ForceDeopt = Cfg.JitDeopt;
    BlazeSim Sim(M, Top, BOpts);
    if (!Sim.valid())
      return inputError(Sim.error());
    if (Cfg.Stats) {
      const jit::JitStats &J = Sim.jitStats();
      if (J.Enabled) {
        fprintf(stderr,
                "blaze jit: %u native unit(s), %u deopt(s), %u native / "
                "%u interpreted instance(s), codegen %.1f ms, host compile "
                "%.1f ms (object: %s), probe sites %u direct / %u "
                "resolved per access\n",
                J.NativeUnits, J.DeoptUnits, J.NativeProcs, J.InterpProcs,
                J.CodegenSeconds * 1000, J.HostCompileSeconds * 1000,
                objectSourceName(J.Object), J.DirectPrbs, J.ResolvedPrbs);
        for (const auto &[U, R] : J.Deopts)
          fprintf(stderr, "blaze jit: deopt @%s: %s\n", U.c_str(),
                  R.c_str());
      }
    }
    Rc = simulate(Sim);
  } else if (Engine == "comm") {
    CommSim Sim(M, Top, Opts);
    if (!Sim.valid())
      return inputError(Sim.error());
    Rc = simulate(Sim);
  } else {
    fprintf(stderr,
            "llhd-sim: unknown engine '%s' (valid engines: interp, "
            "blaze, comm)\n",
            Engine.c_str());
    return exitFor(ExitCode::Usage);
  }
  if (Rc == 0 && WantVcd && !VcdStream)
    Out.Vcd = Wave.text();
  return Rc;
}

void printStats(const RunOutcome &O) {
  fprintf(stderr,
          "%s: %u signals, %u instances, end time %s, %llu slots, "
          "%llu process runs, %llu entity evals, %llu drives scheduled "
          "(%llu word lane), %llu changes, digest %016llx%s%s\n",
          O.Engine.c_str(), O.Signals, O.Instances,
          O.Stats.EndTime.toString().c_str(),
          (unsigned long long)O.Stats.Steps,
          (unsigned long long)O.Stats.ProcessRuns,
          (unsigned long long)O.Stats.EntityEvals,
          (unsigned long long)O.Stats.DrivesScheduled,
          (unsigned long long)O.Stats.WordDrives,
          (unsigned long long)O.Changes, (unsigned long long)O.Digest,
          O.Stats.Finished ? ", finished" : "",
          O.Stats.DeltaOverflow ? ", DELTA OVERFLOW" : "");
}

} // namespace

int main(int Argc, char **Argv) {
  DriverConfig Cfg;
  std::string File;
  int Language = 0; // 0 = by extension, 1 = llhd, 2 = sv.

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "-h" || A == "--help") {
      printUsage();
      return 0;
    } else if (A.rfind("--engine=", 0) == 0) {
      Cfg.Engine = A.substr(strlen("--engine="));
    } else if (A.rfind("--top=", 0) == 0) {
      Cfg.Top = A.substr(strlen("--top="));
    } else if (A.rfind("--until=", 0) == 0) {
      std::string T = A.substr(strlen("--until="));
      if (!Time::parse(T, Cfg.Opts.MaxTime)) {
        fprintf(stderr, "llhd-sim: invalid time '%s'\n", T.c_str());
        return exitFor(ExitCode::Usage);
      }
    } else if (A.rfind("--vcd=", 0) == 0) {
      Cfg.VcdPath = A.substr(strlen("--vcd="));
    } else if (A.rfind("--jit=", 0) == 0) {
      Cfg.Jit = A.substr(strlen("--jit="));
      if (Cfg.Jit != "on" && Cfg.Jit != "off" && Cfg.Jit != "dump") {
        fprintf(stderr,
                "llhd-sim: invalid --jit mode '%s' (valid: on, off, "
                "dump)\n",
                Cfg.Jit.c_str());
        return exitFor(ExitCode::Usage);
      }
    } else if (A.rfind("--jit-deopt=", 0) == 0) {
      Cfg.JitDeopt = A.substr(strlen("--jit-deopt="));
    } else if (A.rfind("--timeout=", 0) == 0) {
      char *End = nullptr;
      std::string S = A.substr(strlen("--timeout="));
      Cfg.Opts.RC.WallTimeoutSec = strtod(S.c_str(), &End);
      if (!End || *End != '\0' || Cfg.Opts.RC.WallTimeoutSec <= 0) {
        fprintf(stderr, "llhd-sim: invalid --timeout '%s' (seconds)\n",
                S.c_str());
        return exitFor(ExitCode::Usage);
      }
    } else if (A.rfind("--max-events=", 0) == 0) {
      Cfg.Opts.RC.MaxEvents =
          strtoull(A.c_str() + strlen("--max-events="), nullptr, 10);
      if (Cfg.Opts.RC.MaxEvents == 0) {
        fprintf(stderr, "llhd-sim: invalid --max-events '%s'\n",
                A.c_str() + strlen("--max-events="));
        return exitFor(ExitCode::Usage);
      }
    } else if (A.rfind("--max-deltas=", 0) == 0) {
      Cfg.Opts.RC.MaxSteps =
          strtoull(A.c_str() + strlen("--max-deltas="), nullptr, 10);
      if (Cfg.Opts.RC.MaxSteps == 0) {
        fprintf(stderr, "llhd-sim: invalid --max-deltas '%s'\n",
                A.c_str() + strlen("--max-deltas="));
        return exitFor(ExitCode::Usage);
      }
    } else if (A.rfind("--checkpoint=", 0) == 0) {
      Cfg.CheckpointPath = A.substr(strlen("--checkpoint="));
    } else if (A.rfind("--checkpoint-every=", 0) == 0) {
      std::string T = A.substr(strlen("--checkpoint-every="));
      Time Every;
      if (!Time::parse(T, Every) || Every.Fs == 0) {
        fprintf(stderr, "llhd-sim: invalid time '%s'\n", T.c_str());
        return exitFor(ExitCode::Usage);
      }
      Cfg.Opts.RC.CheckpointEveryFs = Every.Fs;
    } else if (A.rfind("--resume=", 0) == 0) {
      Cfg.ResumePath = A.substr(strlen("--resume="));
    } else if (A.rfind("--batch=", 0) == 0) {
      char *End = nullptr;
      Cfg.Batch = static_cast<unsigned>(
          strtoul(A.c_str() + strlen("--batch="), &End, 10));
      if (!End || *End != '\0' || Cfg.Batch == 0) {
        fprintf(stderr, "llhd-sim: invalid --batch '%s'\n",
                A.c_str() + strlen("--batch="));
        return exitFor(ExitCode::Usage);
      }
    } else if (A.rfind("--jobs=", 0) == 0) {
      char *End = nullptr;
      Cfg.Jobs = static_cast<unsigned>(
          strtoul(A.c_str() + strlen("--jobs="), &End, 10));
      if (!End || *End != '\0' || Cfg.Jobs == 0) {
        fprintf(stderr, "llhd-sim: invalid --jobs '%s'\n",
                A.c_str() + strlen("--jobs="));
        return exitFor(ExitCode::Usage);
      }
    } else if (A.rfind("--seed=", 0) == 0) {
      char *End = nullptr;
      Cfg.Opts.Seed = strtoull(A.c_str() + strlen("--seed="), &End, 0);
      if (!End || *End != '\0') {
        fprintf(stderr, "llhd-sim: invalid --seed '%s'\n",
                A.c_str() + strlen("--seed="));
        return exitFor(ExitCode::Usage);
      }
    } else if (A.size() > 1 && A[0] == '+') {
      // Plusarg: +key or +key=value, recorded verbatim for
      // $test$plusargs / $plusarg$value.
      std::string Body = A.substr(1);
      size_t Eq = Body.find('=');
      if (Eq == std::string::npos)
        Cfg.Opts.Plusargs.emplace_back(Body, "");
      else
        Cfg.Opts.Plusargs.emplace_back(Body.substr(0, Eq),
                                       Body.substr(Eq + 1));
    } else if (A == "--diff-engines") {
      Cfg.DiffEngines = true;
    } else if (A == "--no-opt") {
      Cfg.NoOpt = true;
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
      Language = 2;
    } else if (A == "--llhd") {
      Language = 1;
    } else if (!A.empty() && A[0] == '-' && A != "-") {
      fprintf(stderr, "llhd-sim: unknown option '%s'\n", A.c_str());
      printUsage();
      return exitFor(ExitCode::Usage);
    } else if (File.empty()) {
      File = A;
    } else {
      fprintf(stderr, "llhd-sim: more than one input file\n");
      return exitFor(ExitCode::Usage);
    }
  }
  if (File.empty()) {
    printUsage();
    return exitFor(ExitCode::Usage);
  }
  if (Cfg.Opts.RC.CheckpointEveryFs && Cfg.CheckpointPath.empty()) {
    fprintf(stderr,
            "llhd-sim: --checkpoint-every requires --checkpoint=<file>\n");
    return exitFor(ExitCode::Usage);
  }
  if (Cfg.DiffEngines &&
      (!Cfg.CheckpointPath.empty() || !Cfg.ResumePath.empty())) {
    // Diff mode runs three engines over one artifact set; checkpointing
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
      !readFileBytes(Cfg.ResumePath, Cfg.ResumeBytes)) {
    fprintf(stderr, "llhd-sim: cannot read checkpoint '%s'\n",
            Cfg.ResumePath.c_str());
    return exitFor(ExitCode::IoError);
  }

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
    Cfg.Opts.RC.StopFlag = &GStopRequested;
  }
  // Dump mode writes the generated C++ next to the design.
  Cfg.JitDumpPath = (File == "-" ? "stdin" : File) + ".jit.cpp";

  std::string Src;
  if (File == "-") {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Src = SS.str();
  } else {
    std::ifstream In(File);
    if (!In) {
      fprintf(stderr, "llhd-sim: cannot open '%s'\n", File.c_str());
      return exitFor(ExitCode::IoError);
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Src = SS.str();
  }
  if (Language == 0) {
    auto endsWith = [&](const char *Suffix) {
      size_t L = strlen(Suffix);
      return File.size() >= L &&
             File.compare(File.size() - L, L, Suffix) == 0;
    };
    Language = (endsWith(".sv") || endsWith(".v")) ? 2 : 1;
  }
  // Detect the SystemVerilog top once, before any engine runs: it
  // cannot change between engines, and this keeps --diff-engines from
  // re-parsing the source an extra time per engine.
  if (Language == 2 && Cfg.Top.empty()) {
    std::string Error;
    Cfg.Top = moore::detectTopModule(Src, Error);
    if (Cfg.Top.empty()) {
      fprintf(stderr, "llhd-sim: %s\n", Error.c_str());
      return exitFor(ExitCode::InputError);
    }
  }

  // Front end: every engine run gets a freshly built module, so the
  // optimising engines can never contaminate a comparison run.
  Context Ctx;
  auto buildModule = [&](const std::string &Name, std::string &Top,
                         std::string &Error) -> std::unique_ptr<Module> {
    auto M = std::make_unique<Module>(Ctx, Name);
    if (Language == 2) {
      moore::CompileResult R =
          moore::compileSystemVerilog(Src, Cfg.Top, *M);
      if (!R.Ok) {
        Error = R.Error;
        return nullptr;
      }
      Top = R.TopUnit;
    } else {
      ParseResult R = parseModule(Src, *M);
      if (!R.Ok) {
        Error = R.Error;
        return nullptr;
      }
      Top = Cfg.Top.empty() ? detectTop(*M, Error) : Cfg.Top;
      if (Top.empty())
        return nullptr;
    }
    return M;
  };

  if (Cfg.DumpLir) {
    std::string Top, Error;
    std::unique_ptr<Module> M = buildModule(File, Top, Error);
    if (!M) {
      fprintf(stderr, "llhd-sim: %s\n", Error.c_str());
      return exitFor(ExitCode::InputError);
    }
    Design D = elaborate(*M, Top);
    if (!D.ok()) {
      fprintf(stderr, "llhd-sim: %s\n", D.Error.c_str());
      return exitFor(ExitCode::InputError);
    }
    // One lowering per distinct unit, in first-instantiation order --
    // exactly what the engines execute.
    LirCache Cache;
    std::vector<Unit *> Seen;
    for (const UnitInstance &UI : D.Instances) {
      if (std::find(Seen.begin(), Seen.end(), UI.U) != Seen.end())
        continue;
      Seen.push_back(UI.U);
      fputs(Cache.get(UI.U).dump().c_str(), stdout);
    }
    return 0;
  }

  if (Cfg.ListSignals) {
    std::string Top, Error;
    std::unique_ptr<Module> M = buildModule(File, Top, Error);
    if (!M) {
      fprintf(stderr, "llhd-sim: %s\n", Error.c_str());
      return exitFor(ExitCode::InputError);
    }
    Design D = elaborate(*M, Top);
    if (!D.ok()) {
      fprintf(stderr, "llhd-sim: %s\n", D.Error.c_str());
      return exitFor(ExitCode::InputError);
    }
    printf("%u signals, %zu instances under @%s\n",
           D.Signals.size(), D.Instances.size(), Top.c_str());
    for (SignalId S = 0; S != D.Signals.size(); ++S) {
      SignalId Canon = D.Signals.canonical(S);
      std::string Alias =
          Canon != S ? " (con -> " + D.Signals.name(Canon) + ")" : "";
      printf("  %4u  %-40s %s%s\n", S, D.Signals.name(S).c_str(),
             D.Signals.value(Canon).toString().c_str(), Alias.c_str());
    }
    return 0;
  }

  // --lint gate: run the static design checks once, before any engine.
  // Error-severity findings abort the run with exit 86 -- they describe
  // designs whose simulation results are misleading (oscillating loops,
  // conflicting drivers), so refusing to simulate is the safe default.
  if (Cfg.Lint) {
    std::string Top, Error;
    std::unique_ptr<Module> M = buildModule(File + ".lint", Top, Error);
    if (!M) {
      fprintf(stderr, "llhd-sim: %s\n", Error.c_str());
      return exitFor(ExitCode::InputError);
    }
    Design D = elaborate(*M, Top);
    if (!D.ok()) {
      fprintf(stderr, "llhd-sim: %s\n", D.Error.c_str());
      return exitFor(ExitCode::InputError);
    }
    DiagnosticEngine::Options LOpts;
    LOpts.WarningsAsErrors = Cfg.LintWerror;
    DiagnosticEngine DE(LOpts);
    DesignAnalysisManager AM;
    lintDesign(D, AM, DE);
    std::string Out = DE.render();
    if (!Out.empty())
      fputs(Out.c_str(), stderr);
    if (DE.failed()) {
      fprintf(stderr, "llhd-sim: not simulating: %s\n",
              exitCodeName(ExitCode::LintFindings));
      return exitFor(ExitCode::LintFindings);
    }
  }

  // Batched fleet simulation: one program build, N instances on a
  // worker pool (sim/Batch.h). Per-instance artifacts land next to the
  // requested paths as <path>.<instance>.
  if (Cfg.Batch) {
    std::string Top, Error;
    std::unique_ptr<Module> M = buildModule(File, Top, Error);
    if (!M) {
      fprintf(stderr, "llhd-sim: %s\n", Error.c_str());
      return exitFor(ExitCode::InputError);
    }
    BatchOptions BO;
    BO.N = Cfg.Batch;
    BO.Jobs = Cfg.Jobs;
    BO.Engine = Cfg.Engine;
    BO.Optimize = !Cfg.NoOpt;
    if (Cfg.Jit == "off")
      BO.Jit.M = jit::JitOptions::Mode::Off;
    else if (Cfg.Jit == "dump") {
      BO.Jit.M = jit::JitOptions::Mode::Dump;
      BO.Jit.DumpPath = Cfg.JitDumpPath;
    } else
      BO.Jit.M = jit::JitOptions::Mode::On;
    BO.Jit.ForceDeopt = Cfg.JitDeopt;
    BO.Base = Cfg.Opts;
    if (!Cfg.CheckpointPath.empty())
      BO.Base.RC.CheckpointOnStop = true;
    BO.VcdPath = Cfg.VcdPath;
    BO.CheckpointPath = Cfg.CheckpointPath;

    if (Cfg.Engine != "interp" && Cfg.Engine != "blaze" &&
        Cfg.Engine != "comm") {
      fprintf(stderr,
              "llhd-sim: unknown engine '%s' (valid engines: interp, "
              "blaze, comm)\n",
              Cfg.Engine.c_str());
      return exitFor(ExitCode::Usage);
    }

    BatchResult R = runBatch(*M, Top, BO);
    if (!R.Ok && !R.Error.empty()) {
      fprintf(stderr, "llhd-sim: %s\n", R.Error.c_str());
      return exitFor(ExitCode::InputError);
    }

    int Exit = exitFor(ExitCode::Ok);
    uint64_t Asserts = 0, Cycles = 0;
    for (const BatchInstance &BI : R.Instances) {
      if (!BI.Error.empty()) {
        fprintf(stderr, "llhd-sim: instance %u: %s\n", BI.Index,
                BI.Error.c_str());
        if (Exit == 0)
          Exit = exitFor(ExitCode::IoError);
        continue;
      }
      Asserts += BI.Stats.AssertFailures;
      Cycles += BI.Stats.Steps;
      if (Cfg.Stats)
        fprintf(stderr,
                "batch[%u]: seed %llu, end time %s, %llu slots, "
                "digest %016llx%s\n",
                BI.Index,
                (unsigned long long)(Cfg.Opts.Seed + BI.Index),
                BI.Stats.EndTime.toString().c_str(),
                (unsigned long long)BI.Stats.Steps,
                (unsigned long long)BI.Digest,
                BI.Stats.Finished ? ", finished" : "");
      if (BI.Stats.Stop != StopReason::None) {
        fprintf(stderr, "llhd-sim: instance %u: stopped at %s: %s\n",
                BI.Index, BI.Stats.EndTime.toString().c_str(),
                stopReasonName(BI.Stats.Stop));
        if (Exit == 0)
          Exit = exitFor(exitCodeFor(BI.Stats.Stop));
      }
    }
    if (Asserts != 0) {
      fprintf(stderr, "llhd-sim: %llu assertion failure(s) across the "
              "batch\n",
              (unsigned long long)Asserts);
      Exit = exitFor(ExitCode::AssertFailed);
    }
    if (Cfg.Stats)
      fprintf(stderr,
              "batch: %u instance(s), build %.3fs (once), run %.3fs, "
              "%llu slots total\n",
              Cfg.Batch, R.BuildSeconds, R.RunSeconds,
              (unsigned long long)Cycles);
    return Exit;
  }

  bool WantVcd = !Cfg.VcdPath.empty();
  std::vector<RunOutcome> Outcomes;
  std::vector<std::string> Engines =
      Cfg.DiffEngines ? std::vector<std::string>{"interp", "blaze", "comm"}
                      : std::vector<std::string>{Cfg.Engine};
  // A single-engine --vcd run streams straight to the file (bounded
  // memory); diff mode keeps each dump in memory to byte-compare them.
  // The file is opened only once the input has built, so a parse error
  // does not clobber a previous good dump.
  std::ofstream VcdOut;
  for (const std::string &E : Engines) {
    std::string Top, Error;
    std::unique_ptr<Module> M = buildModule(File + "." + E, Top, Error);
    if (!M) {
      fprintf(stderr, "llhd-sim: %s\n", Error.c_str());
      return exitFor(ExitCode::InputError);
    }
    if (WantVcd && !VcdOut.is_open()) {
      // A resumed run appends: the interrupted run's dump already holds
      // everything up to the checkpoint instant, and the writer picks up
      // without re-emitting the header, so the file continues
      // byte-identically to an uninterrupted run.
      VcdOut.open(Cfg.VcdPath, Cfg.ResumePath.empty()
                                   ? std::ios::binary
                                   : std::ios::binary | std::ios::app);
      if (!VcdOut) {
        fprintf(stderr, "llhd-sim: cannot write '%s'\n",
                Cfg.VcdPath.c_str());
        return exitFor(ExitCode::IoError);
      }
    }
    RunOutcome O;
    // In diff mode the waveforms are compared even without --vcd.
    if (int Rc = runEngine(E, *M, Top, Cfg, WantVcd || Cfg.DiffEngines,
                           Cfg.DiffEngines ? nullptr : &VcdOut, O))
      return Rc;
    Outcomes.push_back(std::move(O));
    if (Cfg.Stats)
      printStats(Outcomes.back());
  }
  if (WantVcd) {
    if (Cfg.DiffEngines)
      VcdOut << Outcomes.front().Vcd;
    VcdOut.flush();
    if (!VcdOut) { // Full disk / I/O error: fail loudly, not with exit 0.
      fprintf(stderr, "llhd-sim: error writing '%s'\n",
              Cfg.VcdPath.c_str());
      return exitFor(ExitCode::IoError);
    }
  }

  int Exit = exitFor(ExitCode::Ok);
  for (const RunOutcome &O : Outcomes) {
    if (O.Stats.AssertFailures != 0) {
      fprintf(stderr, "llhd-sim: %s: %llu assertion failure(s)\n",
              O.Engine.c_str(), (unsigned long long)O.Stats.AssertFailures);
      Exit = exitFor(ExitCode::AssertFailed);
    }
  }
  // Early stops carry their own exit codes (80-85); an assertion failure
  // observed before the stop still wins, since that is what the run
  // actually diagnosed.
  for (const RunOutcome &O : Outcomes) {
    if (O.Stats.Stop == StopReason::None)
      continue;
    fprintf(stderr, "llhd-sim: %s: stopped at %s: %s\n", O.Engine.c_str(),
            O.Stats.EndTime.toString().c_str(),
            stopReasonName(O.Stats.Stop));
    if (O.Stats.Stop == StopReason::Oscillation) {
      auto join = [](const std::vector<std::string> &V) {
        std::string S;
        for (const std::string &N : V)
          S += (S.empty() ? "" : ", ") + N;
        return S;
      };
      fprintf(stderr, "llhd-sim: %s: cycling process(es): %s\n",
              O.Engine.c_str(), join(O.Stats.OscProcs).c_str());
      fprintf(stderr, "llhd-sim: %s: cycling signal(s): %s\n",
              O.Engine.c_str(), join(O.Stats.OscSigs).c_str());
      // Cross-reference the static analysis: the loop the runtime guard
      // just caught is usually visible to llhd-lint's comb-loop check
      // without running the design at all, with the full cycle named.
      std::string LintTop, LintError;
      if (std::unique_ptr<Module> LM =
              buildModule(File + ".oschint", LintTop, LintError)) {
        Design LD = elaborate(*LM, LintTop);
        if (LD.ok()) {
          DiagnosticEngine::Options LOpts;
          for (const CheckInfo &C : allChecks())
            if (std::string(C.Id) != "comb-loop")
              LOpts.SeverityOverrides[C.Id] = Severity::Ignore;
          DiagnosticEngine LDE(LOpts);
          DesignAnalysisManager LAM;
          lintDesign(LD, LAM, LDE);
          for (const Diagnostic &Dg : LDE.diagnostics())
            fprintf(stderr, "llhd-sim: hint: [%s] %s: %s\n",
                    Dg.CheckId.c_str(), Dg.Location.c_str(),
                    Dg.Message.c_str());
          if (!LDE.diagnostics().empty())
            fprintf(stderr,
                    "llhd-sim: hint: llhd-lint reports this statically "
                    "(check 'comb-loop'); run it for the full cycle\n");
        }
      }
    }
    if (Exit == 0)
      Exit = exitFor(exitCodeFor(O.Stats.Stop));
  }

  if (Cfg.DiffEngines) {
    const RunOutcome &Ref = Outcomes.front();
    bool Diverged = false;
    for (size_t I = 1; I != Outcomes.size(); ++I) {
      const RunOutcome &O = Outcomes[I];
      if (O.Digest != Ref.Digest || O.Changes != Ref.Changes ||
          O.Stats.EndTime != Ref.Stats.EndTime || O.Vcd != Ref.Vcd) {
        Diverged = true;
        fprintf(stderr,
                "llhd-sim: DIVERGENCE %s vs %s: digest %016llx/%016llx, "
                "changes %llu/%llu, vcd %s\n",
                Ref.Engine.c_str(), O.Engine.c_str(),
                (unsigned long long)Ref.Digest, (unsigned long long)O.Digest,
                (unsigned long long)Ref.Changes, (unsigned long long)O.Changes,
                O.Vcd == Ref.Vcd ? "identical" : "DIFFERS");
      }
    }
    if (Diverged)
      return exitFor(ExitCode::Divergence);
    printf("llhd-sim: traces match across interp/blaze/comm "
           "(%llu changes, digest %016llx)\n",
           (unsigned long long)Ref.Changes, (unsigned long long)Ref.Digest);
  }
  return Exit;
}
