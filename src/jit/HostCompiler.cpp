//===- jit/HostCompiler.cpp - Shared-object compilation -------------------===//

#include "jit/HostCompiler.h"
#include "jit/Codegen.h" // AbiVersion.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <mutex>
#include <vector>

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace llhd;
using namespace llhd::jit;

namespace {

/// Everything between the compiler and `-o`: the one compile command
/// (see HostCompiler.h). Part of every object-cache key, so an object
/// built under other flags is never served.
const char *const CompileFlags[] = {"-std=c++17", "-O1",    "-pipe",
                                    "-fPIC",      "-shared", "-nostdlib"};

/// FNV-1a: the key of the process-wide cache of loaded objects (same
/// compiler, flags and source => same object, e.g. bench reps).
uint64_t fnv1a(const std::string &S) {
  uint64_t H = 14695981039346656037ull;
  for (char C : S) {
    H ^= (unsigned char)C;
    H *= 1099511628211ull;
  }
  return H;
}

bool isExecutable(const std::string &Path) {
  return !Path.empty() && access(Path.c_str(), X_OK) == 0;
}

/// Resolves a bare command name against PATH.
bool onPath(const std::string &Cmd) {
  const char *Path = getenv("PATH");
  if (!Path)
    return false;
  std::string P(Path);
  size_t Pos = 0;
  while (Pos <= P.size()) {
    size_t End = P.find(':', Pos);
    if (End == std::string::npos)
      End = P.size();
    std::string Dir = P.substr(Pos, End - Pos);
    if (!Dir.empty() && isExecutable(Dir + "/" + Cmd))
      return true;
    Pos = End + 1;
  }
  return false;
}

std::string readFile(const std::string &Path) {
  std::string Out;
  if (FILE *Fp = fopen(Path.c_str(), "rb")) {
    char Buf[4096];
    size_t N;
    while ((N = fread(Buf, 1, sizeof(Buf), Fp)) > 0)
      Out.append(Buf, N);
    fclose(Fp);
  }
  return Out;
}

bool writeFile(const std::string &Path, const std::string &Data) {
  FILE *Fp = fopen(Path.c_str(), "wb");
  if (!Fp)
    return false;
  size_t N = fwrite(Data.data(), 1, Data.size(), Fp);
  bool Ok = N == Data.size() && fflush(Fp) == 0;
  fclose(Fp);
  return Ok;
}

/// \p Arg quoted for a POSIX shell, bare when that is unambiguous.
std::string shellQuote(const std::string &Arg) {
  if (!Arg.empty() &&
      Arg.find_first_not_of("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRS"
                            "TUVWXYZ0123456789_+-=./:,@") == std::string::npos)
    return Arg;
  std::string Out = "'";
  for (char C : Arg)
    Out += C == '\'' ? std::string("'\\''") : std::string(1, C);
  return Out + "'";
}

/// Runs \p Args (argv[0] is looked up on PATH when it has no slash)
/// without a shell, stdout and stderr written to \p Log, and waits for
/// it. Empty on a zero exit, else why it failed.
std::string spawnAndWait(const std::vector<std::string> &Args,
                         const std::string &Log) {
  std::vector<char *> Argv;
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);

  posix_spawn_file_actions_t Fa;
  posix_spawn_file_actions_init(&Fa);
  posix_spawn_file_actions_addopen(&Fa, STDOUT_FILENO, Log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&Fa, STDOUT_FILENO, STDERR_FILENO);
  pid_t Pid = 0;
  int Rc = posix_spawnp(&Pid, Argv[0], &Fa, nullptr, Argv.data(), environ);
  posix_spawn_file_actions_destroy(&Fa);
  if (Rc != 0)
    return std::string("cannot run host compiler: ") + strerror(Rc);

  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0)
    if (errno != EINTR)
      return std::string("cannot wait for host compiler: ") +
             strerror(errno);
  if (WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
    return "";
  if (WIFSIGNALED(Status))
    return "host compiler killed by signal " +
           std::to_string(WTERMSIG(Status));
  return "host compiler failed (exit status " +
         std::to_string(WEXITSTATUS(Status)) + ")";
}

void removeTree(const std::string &Dir) {
  for (const char *Name : {"jit.cpp", "jit.so", "jit.log"})
    unlink((Dir + "/" + Name).c_str());
  rmdir(Dir.c_str());
}

} // namespace

std::string HostCompiler::findCompiler() {
  // 1. The test/override hook: one program, used verbatim even when
  //    bogus — a bad path exercises the compile-failure fallback; the
  //    empty string disables compilation.
  if (const char *Env = getenv("LLHD_JIT_CXX"))
    return Env;
  // 2. The compiler CMake configured this build with.
#ifdef LLHD_HOST_CXX
  if (isExecutable(LLHD_HOST_CXX))
    return LLHD_HOST_CXX;
#endif
  // 3. Whatever the environment offers.
  for (const char *Cand : {"c++", "g++", "clang++"})
    if (onPath(Cand))
      return Cand;
  return "";
}

/// Loads \p So and verifies its embedded ABI stamp; null handle + error
/// text on failure. Shared by the fresh-compile and on-disk-cache paths.
static void *loadAndCheck(const std::string &So, std::string &Err) {
  void *H = dlopen(So.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!H) {
    const char *E = dlerror();
    Err = std::string("dlopen failed: ") + (E ? E : "unknown error");
    return nullptr;
  }
  int *Abi = reinterpret_cast<int *>(dlsym(H, "llhd_jit_abi_version"));
  if (!Abi || *Abi != AbiVersion) {
    Err = "generated object has ABI version " +
          (Abi ? std::to_string(*Abi) : std::string("<missing>")) +
          ", engine expects " + std::to_string(AbiVersion);
    return nullptr;
  }
  return H;
}

CompileResult HostCompiler::compile(const std::string &Source) {
  CompileResult R;
  R.Compiler = findCompiler();
  if (R.Compiler.empty()) {
    R.Error = "no host C++ compiler found (checked $LLHD_JIT_CXX, the "
              "configured compiler, and c++/g++/clang++ on PATH)";
    return R;
  }
  R.CompilerFound = true;

  // The whole compile-and-load path runs under one lock: concurrent
  // callers racing on the same source (batch instances JITting one
  // program) get exactly one compilation, and the cache map is never
  // mutated under a reader. Distinct sources serialize too — compiles
  // happen once per program build, never on the simulation hot path.
  static std::mutex CacheMu;
  static std::map<uint64_t, void *> Cache;
  std::lock_guard<std::mutex> Lock(CacheMu);

  // Availability is checked before the cache so that a run with the
  // compiler disabled can never be satisfied by an earlier run's
  // cached object.
  std::string KeyText = R.Compiler;
  for (const char *F : CompileFlags)
    (KeyText += '\0') += F;
  uint64_t Key = fnv1a(KeyText + '\0' + Source);
  auto It = Cache.find(Key);
  if (It != Cache.end()) {
    R.Handle = It->second;
    R.From = ObjectSource::Memory;
    return R;
  }

  // Optional cross-process object cache: $LLHD_JIT_CACHE names a
  // directory of compiled objects keyed by (compiler, flags, source,
  // ABI).
  // Objects land there via atomic rename (below), so a concurrent
  // process sees either nothing or a complete object — never a torn
  // write.
  std::string Published;
  if (const char *CacheDir = getenv("LLHD_JIT_CACHE")) {
    if (*CacheDir) {
      mkdir(CacheDir, 0777); // Best-effort; may already exist.
      char Hex[17];
      snprintf(Hex, sizeof(Hex), "%016llx",
               static_cast<unsigned long long>(Key));
      Published = std::string(CacheDir) + "/llhd-jit-" + Hex + "-abi" +
                  std::to_string(AbiVersion) + ".so";
      if (access(Published.c_str(), R_OK) == 0) {
        std::string LoadErr;
        if (void *H = loadAndCheck(Published, LoadErr)) {
          Cache[Key] = H;
          R.Handle = H;
          R.From = ObjectSource::Disk;
          return R;
        }
        // Stale or foreign object: fall through and recompile (the
        // publish below replaces it atomically).
      }
    }
  }

  const char *Base = getenv("LLHD_JIT_TMPDIR");
  if (!Base)
    Base = getenv("TMPDIR");
  if (!Base)
    Base = "/tmp";
  std::string Templ = std::string(Base) + "/llhd-jit-XXXXXX";
  std::vector<char> Dir(Templ.begin(), Templ.end());
  Dir.push_back('\0');
  if (!mkdtemp(Dir.data())) {
    R.Error = std::string("cannot create temp dir under '") + Base +
              "': " + strerror(errno);
    return R;
  }
  std::string D(Dir.data());
  std::string Src = D + "/jit.cpp", So = D + "/jit.so", Log = D + "/jit.log";
  bool Keep = getenv("LLHD_JIT_KEEP") != nullptr;

  if (!writeFile(Src, Source)) {
    R.Error = "cannot write '" + Src + "': " + strerror(errno);
    if (!Keep)
      removeTree(D);
    return R;
  }

  std::vector<std::string> Args{R.Compiler};
  Args.insert(Args.end(), std::begin(CompileFlags), std::end(CompileFlags));
  Args.insert(Args.end(), {"-o", So, Src});
  for (const std::string &A : Args)
    R.Command += (R.Command.empty() ? "" : " ") + shellQuote(A);
  R.Command += " > " + shellQuote(Log) + " 2>&1";
  std::string SpawnErr = spawnAndWait(Args, Log);
  R.Diagnostics = readFile(Log);
  if (!SpawnErr.empty()) {
    R.Error = SpawnErr + ": " + R.Command;
    if (!Keep)
      removeTree(D);
    return R;
  }

  std::string LoadErr;
  void *H = loadAndCheck(So, LoadErr);
  if (!H) {
    R.Error = LoadErr;
    if (!Keep)
      removeTree(D);
    return R;
  }
  // Publish into the cross-process cache: rename is atomic within a
  // filesystem, so readers never see a partial object. EXDEV (cache on
  // another filesystem) just skips persistence. The already-loaded
  // mapping survives the rename (same inode).
  if (!Published.empty())
    rename(So.c_str(), Published.c_str());
  // The mapping survives unlinking the file; only the handle matters.
  if (!Keep)
    removeTree(D);

  Cache[Key] = H;
  R.Handle = H;
  R.From = ObjectSource::Compiled;
  return R;
}
