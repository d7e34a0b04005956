//===- jit/HostCompiler.h - Shared-object compilation ------------*- C++ -*-===//
//
// Compiles a generated C++ translation unit with the host toolchain and
// loads the resulting shared object. Discovery order for the compiler:
//
//   1. $LLHD_JIT_CXX — a single program path (or a bare name looked up
//      on PATH), exec'd directly with no shell: it cannot carry extra
//      arguments. The empty string disables JIT compilation entirely
//      (the no-host-compiler test hook).
//   2. The compiler CMake recorded at configure time (LLHD_HOST_CXX),
//      when it still exists and is executable.
//   3. The first of c++ / g++ / clang++ found on PATH.
//
// A design's translation unit is compiled in up to K shards at once,
// K = min(unit chunks, CPUs in this process's affinity mask). The
// emitter opens every process unit's chunk (its static callees and
// llhd_jit_u<k>) with jit::UnitSentinel; everything before the first
// sentinel is the prelude, which every shard repeats. Chunks go longest
// first into the shard with the fewest bytes, so callees stay next to
// their caller. Only shard 0 may define the ABI stamp: the later ones
// open with `#define LLHD_JIT_ENGINE`. The shards compile with `-c` and
// link into one object:
//
//   <cxx> -std=c++17 -O1 -pipe -fPIC -c -o jit.<i>.o jit.<i>.cpp   (each)
//   <cxx> -shared -nostdlib -o jit.so jit.0.o ... jit.<K-1>.o
//
// With K = 1, or a source without sentinels, there is one command:
//
//   <cxx> -std=c++17 -O1 -pipe -fPIC -shared -nostdlib -o jit.so jit.cpp
//
// Every command is spawned with posix_spawn (no shell, so temp-dir paths
// may contain any character), its stdout and stderr captured in a .log
// next to its source. The compile waits for every child, also after one
// fails, so no compiler outlives it.
//
// The translation unit includes no headers and calls no library
// function (jit/Codegen.h), so the object is linked freestanding: no
// crt files, libstdc++, libm or libgcc_s, which more than halves the
// per-invocation startup and link cost. Anything the compiler still
// emits a call to (memcpy/memset) binds against the host process at
// dlopen(RTLD_NOW). -O1 rather than -O2: the generated code's run phase
// is bound by callback crossings, not code quality, so -O1 keeps it
// within noise at about two thirds of the compile time; -Og compiles
// faster still but measurably slowed the run phase (DESIGN.md has the
// numbers).
//
// Every failure mode — no compiler, unwritable or full temp dir, a
// compiler that cannot be spawned or fails, an unloadable or
// ABI-mismatched object — returns a result carrying the attempted
// command and the captured diagnostics instead of aborting, so the
// engine can log and fall back to interpretation.
//
// Loaded objects are cached process-wide, keyed by (compiler, compile
// and link flags, source), and never dlclosed: bound function pointers
// must outlive every engine. The shard count is no part of the key: a
// split source links into an object that runs exactly like the unsplit
// one. The cache (and the whole compile-and-load path) is serialized
// behind a mutex, so concurrent callers — batch instances racing to JIT
// one program — get exactly one compilation per distinct key. Setting
// $LLHD_JIT_CACHE to a directory additionally persists compiled objects
// across processes under the same key, published with an atomic
// tmp+rename so concurrent processes never observe a partial object.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_JIT_HOSTCOMPILER_H
#define LLHD_JIT_HOSTCOMPILER_H

#include "jit/Jit.h" // ObjectSource.

#include <string>

namespace llhd {
namespace jit {

/// Outcome of one compile-and-load attempt.
struct CompileResult {
  /// dlopen handle, null on failure. Process lifetime; never dlclosed.
  void *Handle = nullptr;
  bool CompilerFound = false;
  ObjectSource From = ObjectSource::None; ///< Where Handle came from.
  std::string Compiler; ///< The discovered compiler, empty when none.
  /// Shell-quoted rendering of the invocations, one per line (the shard
  /// compiles, then the link), for logs; empty when no compiler ran.
  std::string Command;
  /// The compilers' stdout/stderr, every shard's and the link's in that
  /// order, also on success: warnings land here.
  std::string Diagnostics;
  /// Translation units compiled: 1 for the single command, K when the
  /// source was split; 0 when no compiler ran (cache hits).
  unsigned Shards = 0;
  std::string Error;    ///< Human-readable failure reason, empty on success.

  bool ok() const { return Handle != nullptr; }
};

class HostCompiler {
public:
  /// The compiler the next compile() will use; empty when disabled or
  /// none found.
  static std::string findCompiler();

  /// Compiles \p Source into one shared object in a fresh temp dir
  /// (respecting $LLHD_JIT_TMPDIR / $TMPDIR), split into shards that
  /// compile at once when it holds several unit chunks and this process
  /// may use several CPUs, dlopens it, and verifies the embedded ABI
  /// version. The temp dir is removed afterwards
  /// unless $LLHD_JIT_KEEP is set. Thread-safe: one compilation per
  /// distinct (compiler, flags, source) process-wide; with
  /// $LLHD_JIT_CACHE set, objects are reused across processes. Never
  /// throws, never aborts.
  static CompileResult compile(const std::string &Source);
};

} // namespace jit
} // namespace llhd

#endif // LLHD_JIT_HOSTCOMPILER_H
