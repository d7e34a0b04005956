//===- jit/Jit.h - JIT options and statistics -------------------*- C++ -*-===//
//
// The light-weight JIT configuration surface: options chosen by the
// caller (engine constructors, llhd-sim's --jit flag, the bench
// ablations) and the statistics the engine reports back. Kept free of
// heavy includes so sim/LirEngine.h and blaze/Blaze.h can expose JIT
// knobs without pulling in codegen or the host-compiler machinery.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_JIT_JIT_H
#define LLHD_JIT_JIT_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace llhd {
namespace jit {

/// Per-engine JIT configuration.
struct JitOptions {
  enum class Mode : uint8_t {
    Off,  ///< Interpret everything (today's behaviour).
    On,   ///< Compile what planning admits, interpret the rest.
    Dump, ///< Like On, but also write the generated C++ to DumpPath.
  };
  Mode M = Mode::Off;
  /// Destination of the generated translation unit in Dump mode.
  std::string DumpPath;
  /// Testing knob: process units whose name contains this substring
  /// ("*" for all) are refused native code, as if planning had deopted
  /// them. Exercises the interpreter fallback — in particular restoring
  /// a JIT-taken checkpoint without matching native entries.
  std::string ForceDeopt;
};

/// Where a loaded shared object came from (jit/HostCompiler.h).
enum class ObjectSource : uint8_t {
  None,     ///< Nothing loaded: no native units, or the compile failed.
  Memory,   ///< This process had already loaded the same object.
  Disk,     ///< Loaded from the $LLHD_JIT_CACHE directory.
  Compiled, ///< Freshly built by the host compiler.
};

/// What the JIT did for one engine build; see LirEngine::jitStats().
struct JitStats {
  bool Enabled = false;       ///< Mode was On or Dump.
  bool CompilerFound = false; ///< A host compiler was discovered.
  bool Compiled = false;      ///< The shared object loaded and bound.
  double CodegenSeconds = 0;  ///< Plan + emit of the translation unit.
  /// Object lookup, host compiler spawn + wait, and dlopen.
  double HostCompileSeconds = 0;
  ObjectSource Object = ObjectSource::None; ///< Where the object came from.
  /// Translation units the host compiler ran on (CompileResult::Shards).
  unsigned Shards = 0;
  unsigned NativeUnits = 0;   ///< Process units running as native code.
  unsigned DeoptUnits = 0;    ///< Process units kept on the interpreter.
  unsigned NativeProcs = 0;   ///< Process instances bound to native code.
  unsigned InterpProcs = 0;   ///< Process instances interpreted.
  /// Probe sites of native instances that read their signal's storage
  /// in place, and those resolved through SignalTable::read() on every
  /// access (sub-signals, bit slices).
  unsigned DirectPrbs = 0;
  unsigned ResolvedPrbs = 0;
  /// (unit name, reason) for every deopted unit, in plan order.
  std::vector<std::pair<std::string, std::string>> Deopts;
  /// Set when the whole engine degraded to interpretation (no compiler,
  /// compile failure, unloadable object); also printed to stderr once.
  std::string Warning;
};

} // namespace jit
} // namespace llhd

#endif // LLHD_JIT_JIT_H
