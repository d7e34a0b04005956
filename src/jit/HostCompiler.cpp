//===- jit/HostCompiler.cpp - Shared-object compilation -------------------===//

#include "jit/HostCompiler.h"
#include "jit/Codegen.h" // AbiVersion.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <mutex>
#include <numeric>
#include <vector>

#include <dlfcn.h>
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace llhd;
using namespace llhd::jit;

namespace {

/// Everything between the compiler and `-o` (see HostCompiler.h): the
/// single command passes both lists, a shard compile only the first and
/// the link only the second. Part of every object-cache key, so an
/// object built under other flags is never served.
const char *const CompileFlags[] = {"-std=c++17", "-O1", "-pipe", "-fPIC"};
const char *const LinkFlags[] = {"-shared", "-nostdlib"};

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

/// One compiler invocation: its argv (argv[0] is looked up on PATH when
/// it has no slash) and the file its stdout and stderr go to.
struct Job {
  std::vector<std::string> Args;
  std::string Log;

  /// Shell-quoted rendering, for logs and errors.
  std::string command() const {
    std::string C;
    for (const std::string &A : Args)
      C += (C.empty() ? "" : " ") + shellQuote(A);
    return C + " > " + shellQuote(Log) + " 2>&1";
  }
};

/// Starts \p J without a shell; empty on success, else why not.
std::string spawnJob(const Job &J, pid_t &Pid) {
  std::vector<char *> Argv;
  for (const std::string &A : J.Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);

  posix_spawn_file_actions_t Fa;
  posix_spawn_file_actions_init(&Fa);
  posix_spawn_file_actions_addopen(&Fa, STDOUT_FILENO, J.Log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&Fa, STDOUT_FILENO, STDERR_FILENO);
  int Rc = posix_spawnp(&Pid, Argv[0], &Fa, nullptr, Argv.data(), environ);
  posix_spawn_file_actions_destroy(&Fa);
  if (Rc == 0)
    return "";
  Pid = -1;
  return std::string("cannot run host compiler: ") + strerror(Rc);
}

/// Reaps \p Pid; empty on a zero exit, else why it failed.
std::string waitJob(pid_t Pid) {
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

/// Runs every job at once and reaps every child it started, also after
/// one fails, so none outlives the call. Empty when all exited zero,
/// else the first failure and the command that failed.
std::string runJobs(const std::vector<Job> &Jobs) {
  std::string Err;
  std::vector<pid_t> Pids(Jobs.size(), -1);
  for (size_t I = 0; I != Jobs.size() && Err.empty(); ++I)
    if (std::string E = spawnJob(Jobs[I], Pids[I]); !E.empty())
      Err = E + ": " + Jobs[I].command();
  for (size_t I = 0; I != Jobs.size(); ++I)
    if (Pids[I] > 0)
      if (std::string E = waitJob(Pids[I]); !E.empty() && Err.empty())
        Err = E + ": " + Jobs[I].command();
  return Err;
}

/// CPUs this process may run on; at least 1.
unsigned usableCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 1;
  return std::max(CPU_COUNT(&Set), 1);
}

/// Splits \p Source at its UnitSentinel lines into at most \p MaxShards
/// translation units. Each repeats the prelude (everything before the
/// first sentinel); the unit chunks go longest first into the bin with
/// the fewest bytes and keep their source order within a bin. Only
/// shard 0 may define the ABI stamp, so the later ones open with
/// LLHD_JIT_ENGINE (jit/Prelude.h). With fewer than two shards the
/// source is returned whole, to compile as one unit.
std::vector<std::string> splitShards(const std::string &Source,
                                     unsigned MaxShards) {
  std::vector<size_t> Starts;
  for (size_t Pos = Source.find(UnitSentinel); Pos != std::string::npos;
       Pos = Source.find(UnitSentinel, Pos + 1))
    if (Pos == 0 || Source[Pos - 1] == '\n')
      Starts.push_back(Pos);
  size_t Chunks = Starts.size();
  size_t K = std::min<size_t>(Chunks, MaxShards);
  if (K < 2)
    return {Source};
  Starts.push_back(Source.size());
  auto Size = [&](size_t C) { return Starts[C + 1] - Starts[C]; };

  std::vector<size_t> Order(Chunks);
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(),
                   [&](size_t A, size_t B) { return Size(A) > Size(B); });
  std::vector<size_t> Load(K, 0);
  std::vector<std::vector<size_t>> Bins(K);
  for (size_t C : Order) {
    size_t B = std::min_element(Load.begin(), Load.end()) - Load.begin();
    Bins[B].push_back(C);
    Load[B] += Size(C);
  }

  std::vector<std::string> Shards(K);
  for (size_t B = 0; B != K; ++B) {
    std::sort(Bins[B].begin(), Bins[B].end());
    std::string &S = Shards[B];
    S.reserve(Starts[0] + Load[B] + 32);
    if (B)
      S += "#define LLHD_JIT_ENGINE\n";
    S.append(Source, 0, Starts[0]);
    for (size_t C : Bins[B])
      S.append(Source, Starts[C], Size(C));
  }
  return Shards;
}

/// Removes a compile's temp dir: the single command's files and those
/// of \p Shards shards.
void removeTree(const std::string &Dir, size_t Shards) {
  for (const char *Name : {"jit.cpp", "jit.so", "jit.log"})
    unlink((Dir + "/" + Name).c_str());
  for (size_t I = 0; I != Shards; ++I)
    for (const char *Ext : {".cpp", ".o", ".log"})
      unlink((Dir + "/jit." + std::to_string(I) + Ext).c_str());
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
  for (const char *F : LinkFlags)
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
  std::string So = D + "/jit.so";
  bool Keep = getenv("LLHD_JIT_KEEP") != nullptr;
  std::vector<std::string> Shards = splitShards(Source, usableCpus());
  bool Split = Shards.size() > 1;
  auto Fail = [&](std::string Err) {
    R.Error = std::move(Err);
    if (!Keep)
      removeTree(D, Shards.size());
    return R;
  };

  // The single command, or one `-c` per shard, all at once, then the
  // link.
  std::vector<Job> Jobs;
  for (size_t I = 0; I != Shards.size(); ++I) {
    std::string Stem = D + (Split ? "/jit." + std::to_string(I) : "/jit");
    if (!writeFile(Stem + ".cpp", Shards[I]))
      return Fail("cannot write '" + Stem + ".cpp': " + strerror(errno));
    Job J{{R.Compiler}, Stem + ".log"};
    J.Args.insert(J.Args.end(), std::begin(CompileFlags),
                  std::end(CompileFlags));
    if (Split)
      J.Args.push_back("-c");
    else
      J.Args.insert(J.Args.end(), std::begin(LinkFlags), std::end(LinkFlags));
    J.Args.insert(J.Args.end(),
                  {"-o", Split ? Stem + ".o" : So, Stem + ".cpp"});
    Jobs.push_back(std::move(J));
  }
  R.Shards = Shards.size();
  std::string Err = runJobs(Jobs);
  if (Err.empty() && Split) {
    Job Link{{R.Compiler}, D + "/jit.log"};
    Link.Args.insert(Link.Args.end(), std::begin(LinkFlags),
                     std::end(LinkFlags));
    Link.Args.insert(Link.Args.end(), {"-o", So});
    for (size_t I = 0; I != Shards.size(); ++I)
      Link.Args.push_back(D + "/jit." + std::to_string(I) + ".o");
    Jobs.push_back(std::move(Link));
    Err = runJobs({Jobs.back()});
  }
  for (const Job &J : Jobs) {
    R.Command += (R.Command.empty() ? "" : "\n") + J.command();
    R.Diagnostics += readFile(J.Log);
  }
  if (!Err.empty())
    return Fail(Err);

  std::string LoadErr;
  void *H = loadAndCheck(So, LoadErr);
  if (!H)
    return Fail(LoadErr);
  // Publish into the cross-process cache: rename is atomic within a
  // filesystem, so readers never see a partial object. EXDEV (cache on
  // another filesystem) just skips persistence. The already-loaded
  // mapping survives the rename (same inode).
  if (!Published.empty())
    rename(So.c_str(), Published.c_str());
  // The mapping survives unlinking the file; only the handle matters.
  if (!Keep)
    removeTree(D, Shards.size());

  Cache[Key] = H;
  R.Handle = H;
  R.From = ObjectSource::Compiled;
  return R;
}
