//===- tests/sim/CheckpointTest.cpp - Kill/resume state serialization -----===//
//
// The tentpole acceptance criterion for crash resilience: a run stopped
// at an arbitrary instant, checkpointed and resumed in a fresh engine
// must be indistinguishable from an uninterrupted run — the trace digest
// matches and the two VCD fragments concatenate byte-identically to the
// reference dump. Swept over the Table 2 designs suite for Interp and for
// Blaze with the JIT on and off, plus the cross-engine (interp <->
// unoptimised native blaze over word arrays, unoptimised blaze ->
// interp, interp's var cells -> native blaze) and JIT-Blaze forced-deopt
// resume paths and the image-corruption error cases.
//
//===----------------------------------------------------------------------===//

#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "moore/Compiler.h"
#include "sim/Checkpoint.h"
#include "sim/Interp.h"
#include "sim/Wave.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

using namespace llhd;

namespace {

/// Compiles design \p D into \p M; returns the top unit name.
std::string compileDesign(const designs::DesignInfo &D, Module &M) {
  moore::CompileResult R =
      moore::compileSystemVerilog(D.Source, D.TopModule, M);
  EXPECT_TRUE(R.Ok) << D.Key << ": " << R.Error;
  return R.TopUnit;
}

/// Engine factories with a uniform shape, so the kill/resume procedure
/// below is written once. Each returns a fresh engine over \p M with the
/// waveform observer already attached.
auto makeInterp(Module &M, const std::string &Top, const SimOptions &O) {
  Design Dn = elaborate(M, Top);
  EXPECT_TRUE(Dn.ok()) << Dn.Error;
  return std::make_unique<InterpSim>(std::move(Dn), O);
}

auto makeBlaze(Module &M, const std::string &Top, const SimOptions &O,
               const std::string &ForceDeopt = "", bool Optimize = true,
               jit::JitOptions::Mode Jit = jit::JitOptions::Mode::On) {
  BlazeSim::BlazeOptions BO;
  static_cast<SimOptions &>(BO) = O;
  BO.Jit.M = Jit;
  BO.Jit.ForceDeopt = ForceDeopt;
  BO.Optimize = Optimize;
  auto Sim = std::make_unique<BlazeSim>(M, Top, BO);
  EXPECT_TRUE(Sim->valid()) << Sim->error();
  return Sim;
}

/// Runs design \p D three times through \p Make: an uninterrupted
/// reference, a run killed by a delta budget at roughly half the
/// reference's slots (checkpointing on the stop), and a fresh engine
/// resumed from that image. Asserts the resumed run finishes with the
/// reference's digest and that part1+part2 VCD bytes equal the
/// reference's.
template <typename MakeSim>
void killAndResume(const designs::DesignInfo &D, MakeSim Make) {
  Context Ctx;

  Module MRef(Ctx, D.Key + ".ref");
  std::string Top = compileDesign(D, MRef);
  WaveWriter WRef;
  SimOptions ORef;
  ORef.Wave = &WRef;
  auto Ref = Make(MRef, Top, ORef);
  SimStats SRef = Ref->run();
  ASSERT_EQ(SRef.Stop, StopReason::None);
  ASSERT_GE(SRef.Steps, 4u) << D.Key << ": too short to cut in half";

  // Part 1: kill at the halfway instant, checkpoint on the way out.
  Module MCut(Ctx, D.Key + ".cut");
  compileDesign(D, MCut);
  WaveWriter WCut;
  SimOptions OCut;
  OCut.Wave = &WCut;
  auto Cut = Make(MCut, Top, OCut);
  std::vector<uint8_t> Image;
  Cut->options().RC.MaxSteps = SRef.Steps / 2;
  Cut->options().RC.CheckpointOnStop = true;
  Cut->options().RC.Checkpoint = [&](Time) {
    Image.clear();
    Cut->checkpoint(Image);
    return true;
  };
  SimStats SCut = Cut->run();
  EXPECT_EQ(SCut.Stop, StopReason::DeltaBudget) << D.Key;
  ASSERT_FALSE(Image.empty()) << D.Key;

  // Part 2: a brand-new engine picks the image up and runs to the end.
  Module MRes(Ctx, D.Key + ".res");
  compileDesign(D, MRes);
  WaveWriter WRes;
  SimOptions ORes;
  ORes.Wave = &WRes;
  auto Res = Make(MRes, Top, ORes);
  std::string Err;
  ASSERT_TRUE(Res->restore(Image, Err)) << D.Key << ": " << Err;
  SimStats SRes = Res->run();

  EXPECT_EQ(SRes.Stop, StopReason::None) << D.Key;
  EXPECT_EQ(SRes.Finished, SRef.Finished) << D.Key;
  EXPECT_EQ(SRes.EndTime, SRef.EndTime) << D.Key;
  // Counters were checkpointed, so the resumed totals are the run's.
  EXPECT_EQ(SRes.Steps, SRef.Steps) << D.Key;
  EXPECT_EQ(SRes.AssertFailures, SRef.AssertFailures) << D.Key;
  EXPECT_EQ(Res->trace().numChanges(), Ref->trace().numChanges()) << D.Key;
  EXPECT_EQ(Res->trace().digest(), Ref->trace().digest())
      << D.Key << ": resumed trace digest diverges";
  EXPECT_EQ(WCut.text() + WRes.text(), WRef.text())
      << D.Key << ": part1+part2 VCD is not byte-identical";
}

class CheckpointSweep : public ::testing::TestWithParam<std::string> {
protected:
  designs::DesignInfo D = designs::designByKey(GetParam(), 0.0);
};

TEST_P(CheckpointSweep, InterpKillAndResume) {
  ASSERT_FALSE(D.Key.empty());
  killAndResume(D, [](Module &M, const std::string &T, const SimOptions &O) {
    return makeInterp(M, T, O);
  });
}

TEST_P(CheckpointSweep, BlazeKillAndResume) {
  ASSERT_FALSE(D.Key.empty());
  killAndResume(D, [](Module &M, const std::string &T, const SimOptions &O) {
    return makeBlaze(M, T, O);
  });
}

TEST_P(CheckpointSweep, BlazeJitOffKillAndResume) {
  ASSERT_FALSE(D.Key.empty());
  killAndResume(D, [](Module &M, const std::string &T, const SimOptions &O) {
    return makeBlaze(M, T, O, "", true, jit::JitOptions::Mode::Off);
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, CheckpointSweep,
    ::testing::Values("gray", "fir", "lfsr", "lzc", "fifo", "cdc_gray",
                      "cdc_strobe", "rr_arbiter", "stream_delayer",
                      "riscv"),
    [](const ::testing::TestParamInfo<std::string> &I) { return I.param; });

// A checkpoint written by the reference interpreter restores into
// unoptimised Blaze with the JIT on mid-run, and a native image restores
// into the interpreter: the clone prints like the caller's module, so the
// compatibility hash matches, and both tiers run over one frame, whose
// word arrays the image carries as RtValue arrays. fifo, stream_delayer
// and riscv hold word arrays in native processes (riscv probes a
// 32-element register file). The digest continues identically across
// the engine swap, and the two runs' VCDs stitch into the uninterrupted
// run's.
class CrossEngineResume : public ::testing::TestWithParam<std::string> {};

TEST_P(CrossEngineResume, InterpBlazeBothWays) {
  designs::DesignInfo D = designs::designByKey(GetParam(), 0.0);
  ASSERT_FALSE(D.Key.empty());
  Context Ctx;

  Module MRef(Ctx, "ref");
  std::string Top = compileDesign(D, MRef);
  WaveWriter WRef;
  SimOptions ORef;
  ORef.Wave = &WRef;
  auto Ref = makeInterp(MRef, Top, ORef);
  SimStats SRef = Ref->run();
  ASSERT_GE(SRef.Steps, 4u);

  for (bool InterpFirst : {true, false}) {
    const char *Name = InterpFirst ? "interp->blaze" : "blaze->interp";
    Module MCut(Ctx, InterpFirst ? "cut.i" : "cut.b");
    compileDesign(D, MCut);
    std::vector<uint8_t> Image;
    WaveWriter WCut, WRes;
    SimOptions OCut, ORes;
    OCut.Wave = &WCut;
    ORes.Wave = &WRes;
    SimStats SCut;
    auto cutRun = [&](auto Sim) {
      Sim->options().RC.MaxSteps = SRef.Steps / 2;
      Sim->options().RC.CheckpointOnStop = true;
      Sim->options().RC.Checkpoint = [&, S = Sim.get()](Time) {
        S->checkpoint(Image);
        return true;
      };
      // With a host compiler, the Blaze side runs natively.
      if (Sim->jitStats().Compiled) {
        EXPECT_GT(Sim->jitStats().NativeProcs, 0u) << Name;
      }
      SCut = Sim->run();
    };
    if (InterpFirst)
      cutRun(makeInterp(MCut, Top, OCut));
    else
      cutRun(makeBlaze(MCut, Top, OCut, "", /*Optimize=*/false));
    ASSERT_EQ(SCut.Stop, StopReason::DeltaBudget) << Name;
    ASSERT_FALSE(Image.empty()) << Name;

    Module MRes(Ctx, InterpFirst ? "res.b" : "res.i");
    compileDesign(D, MRes);
    std::string Err;
    SimStats SRes;
    uint64_t Digest = 0;
    auto resRun = [&](auto Sim) {
      ASSERT_TRUE(Sim->restore(Image, Err)) << Name << ": " << Err;
      if (Sim->jitStats().Compiled) {
        EXPECT_GT(Sim->jitStats().NativeProcs, 0u) << Name;
      }
      SRes = Sim->run();
      Digest = Sim->trace().digest();
    };
    if (InterpFirst)
      resRun(makeBlaze(MRes, Top, ORes, "", /*Optimize=*/false));
    else
      resRun(makeInterp(MRes, Top, ORes));
    EXPECT_EQ(SRes.EndTime, SRef.EndTime) << Name;
    EXPECT_EQ(Digest, Ref->trace().digest())
        << Name << ": digest diverges across the engine swap";
    EXPECT_EQ(WCut.text() + WRes.text(), WRef.text())
        << Name << ": VCD not byte-identical";
  }
}

INSTANTIATE_TEST_SUITE_P(
    ArrayDesigns, CrossEngineResume,
    ::testing::Values("fifo", "stream_delayer", "riscv"),
    [](const ::testing::TestParamInfo<std::string> &I) { return I.param; });

// rr_arbiter's processes run `var` on every activation. The interpreter
// keeps one fixed cell per var op in its word file; its image writes them
// as one memory cell per var op in pc order, which a restore loads back
// into the cells native code runs on. Checkpointed mid-run on Interp, the
// run resumes on unoptimised Blaze, natively and with the JIT off, with
// the uninterrupted run's digest and VCD bytes.
TEST(Checkpoint, InterpVarCellsResumeOnBlaze) {
  designs::DesignInfo D = designs::designByKey("rr_arbiter", 0.0);
  ASSERT_FALSE(D.Key.empty());
  Context Ctx;

  Module MRef(Ctx, "ref");
  std::string Top = compileDesign(D, MRef);
  WaveWriter WRef;
  SimOptions ORef;
  ORef.Wave = &WRef;
  auto Ref = makeInterp(MRef, Top, ORef);
  SimStats SRef = Ref->run();
  ASSERT_GE(SRef.Steps, 4u);

  for (auto Jit : {jit::JitOptions::Mode::On, jit::JitOptions::Mode::Off}) {
    const char *Name = Jit == jit::JitOptions::Mode::On ? "native" : "jit-off";
    Module MCut(Ctx, std::string("cut.") + Name);
    compileDesign(D, MCut);
    WaveWriter WCut;
    SimOptions OCut;
    OCut.Wave = &WCut;
    auto Cut = makeInterp(MCut, Top, OCut);
    std::vector<uint8_t> Image;
    Cut->options().RC.MaxSteps = SRef.Steps / 2;
    Cut->options().RC.CheckpointOnStop = true;
    Cut->options().RC.Checkpoint = [&](Time) {
      Cut->checkpoint(Image);
      return true;
    };
    ASSERT_EQ(Cut->run().Stop, StopReason::DeltaBudget) << Name;
    ASSERT_FALSE(Image.empty()) << Name;

    Module MRes(Ctx, std::string("res.") + Name);
    compileDesign(D, MRes);
    WaveWriter WRes;
    SimOptions ORes;
    ORes.Wave = &WRes;
    auto Res = makeBlaze(MRes, Top, ORes, "", /*Optimize=*/false, Jit);
    std::string Err;
    ASSERT_TRUE(Res->restore(Image, Err)) << Name << ": " << Err;
    if (Res->jitStats().Compiled) {
      EXPECT_EQ(Res->jitStats().InterpProcs, 0u)
          << Name << ": a restored process fell back to interpretation";
    }
    SimStats SRes = Res->run();
    EXPECT_EQ(SRes.EndTime, SRef.EndTime) << Name;
    EXPECT_EQ(SRes.Steps, SRef.Steps) << Name;
    EXPECT_EQ(Res->trace().digest(), Ref->trace().digest())
        << Name << ": resumed digest diverges";
    EXPECT_EQ(WCut.text() + WRes.text(), WRef.text())
        << Name << ": VCD not byte-identical";
  }
}

// Without optimisation Blaze's in-memory clone prints exactly like the
// caller's module, so a Blaze image carries the same compatibility hash
// and resumes on Interp. gray and riscv branch forward to blocks defined
// later, which a print/parse clone used to reorder.
TEST(Checkpoint, UnoptimisedBlazeResumesOnInterp) {
  for (const char *Key : {"gray", "riscv"}) {
    designs::DesignInfo D = designs::designByKey(Key, 0.0);
    ASSERT_FALSE(D.Key.empty());
    Context Ctx;

    Module MRef(Ctx, "ref");
    std::string Top = compileDesign(D, MRef);
    WaveWriter WRef;
    SimOptions ORef;
    ORef.Wave = &WRef;
    auto Ref = makeInterp(MRef, Top, ORef);
    SimStats SRef = Ref->run();
    ASSERT_GE(SRef.Steps, 4u) << Key;

    Module MCut(Ctx, "cut");
    compileDesign(D, MCut);
    WaveWriter WCut;
    SimOptions OCut;
    OCut.Wave = &WCut;
    auto Cut = makeBlaze(MCut, Top, OCut, "", /*Optimize=*/false);
    std::vector<uint8_t> Image;
    Cut->options().RC.MaxSteps = SRef.Steps / 2;
    Cut->options().RC.CheckpointOnStop = true;
    Cut->options().RC.Checkpoint = [&](Time) {
      Cut->checkpoint(Image);
      return true;
    };
    ASSERT_EQ(Cut->run().Stop, StopReason::DeltaBudget) << Key;
    ASSERT_FALSE(Image.empty()) << Key;

    Module MRes(Ctx, "res.interp");
    compileDesign(D, MRes);
    WaveWriter WRes;
    SimOptions ORes;
    ORes.Wave = &WRes;
    auto Res = makeInterp(MRes, Top, ORes);
    std::string Err;
    ASSERT_TRUE(Res->restore(Image, Err)) << Key << ": " << Err;
    SimStats SRes = Res->run();
    EXPECT_EQ(SRes.EndTime, SRef.EndTime) << Key;
    EXPECT_EQ(SRes.Steps, SRef.Steps) << Key;
    EXPECT_EQ(Res->trace().digest(), Ref->trace().digest())
        << Key << ": stitched digest diverges";
    EXPECT_EQ(WCut.text() + WRes.text(), WRef.text())
        << Key << ": VCD not byte-identical";
  }
}

// JIT-Blaze deopt interchange: an image checkpointed while processes ran
// natively restores into an engine where every unit was forced back to
// the interpreter, and vice versa — the resumption-point mapping between
// native entry numbers and LIR pcs works in both directions. (When no
// host compiler is available both runs interpret and the test still
// holds trivially.)
TEST(Checkpoint, BlazeForcedDeoptResume) {
  designs::DesignInfo D = designs::designByKey("gray", 0.0);
  ASSERT_FALSE(D.Key.empty());
  Context Ctx;

  Module MRef(Ctx, "ref");
  std::string Top = compileDesign(D, MRef);
  WaveWriter WRef;
  SimOptions O;
  O.Wave = &WRef;
  auto Ref = makeBlaze(MRef, Top, O);
  SimStats SRef = Ref->run();
  ASSERT_GE(SRef.Steps, 4u);

  for (bool DeoptFirst : {false, true}) {
    Module MCut(Ctx, DeoptFirst ? "cut.d" : "cut.j");
    compileDesign(D, MCut);
    WaveWriter WCut;
    SimOptions OCut;
    OCut.Wave = &WCut;
    auto Cut = makeBlaze(MCut, Top, OCut, DeoptFirst ? "*" : "");
    std::vector<uint8_t> Image;
    Cut->options().RC.MaxSteps = SRef.Steps / 2;
    Cut->options().RC.CheckpointOnStop = true;
    Cut->options().RC.Checkpoint = [&](Time) {
      Cut->checkpoint(Image);
      return true;
    };
    ASSERT_EQ(Cut->run().Stop, StopReason::DeltaBudget);
    ASSERT_FALSE(Image.empty());

    Module MRes(Ctx, DeoptFirst ? "res.j" : "res.d");
    compileDesign(D, MRes);
    WaveWriter WRes;
    SimOptions ORes;
    ORes.Wave = &WRes;
    auto Res = makeBlaze(MRes, Top, ORes, DeoptFirst ? "" : "*");
    std::string Err;
    ASSERT_TRUE(Res->restore(Image, Err)) << Err;
    SimStats SRes = Res->run();

    EXPECT_EQ(SRes.EndTime, SRef.EndTime);
    EXPECT_EQ(Res->trace().digest(), Ref->trace().digest())
        << (DeoptFirst ? "deopt->jit" : "jit->deopt")
        << ": digest diverges";
    EXPECT_EQ(WCut.text() + WRes.text(), WRef.text())
        << (DeoptFirst ? "deopt->jit" : "jit->deopt")
        << ": VCD not byte-identical";
  }
}

// Corrupt or mismatched images are rejected with a diagnostic, never
// silently half-restored.
TEST(Checkpoint, RejectsCorruptAndMismatchedImages) {
  designs::DesignInfo D = designs::designByKey("gray", 0.0);
  Context Ctx;
  Module M(Ctx, "m");
  std::string Top = compileDesign(D, M);
  SimOptions O;

  std::vector<uint8_t> Image;
  {
    auto Sim = makeInterp(M, Top, O);
    Sim->options().RC.MaxSteps = 4;
    Sim->options().RC.CheckpointOnStop = true;
    Sim->options().RC.Checkpoint = [&, S = Sim.get()](Time) {
      S->checkpoint(Image);
      return true;
    };
    Sim->run();
    ASSERT_FALSE(Image.empty());
  }
  std::string Err;

  // Empty image.
  EXPECT_FALSE(makeInterp(M, Top, O)->restore({}, Err));
  EXPECT_FALSE(Err.empty());

  // Bad magic.
  std::vector<uint8_t> Bad = Image;
  Bad[0] ^= 0xff;
  EXPECT_FALSE(makeInterp(M, Top, O)->restore(Bad, Err));

  // Truncated mid-stream.
  std::vector<uint8_t> Short(Image.begin(),
                             Image.begin() + Image.size() / 2);
  EXPECT_FALSE(makeInterp(M, Top, O)->restore(Short, Err));

  // A different design: the module-hash compatibility check fires.
  designs::DesignInfo D2 = designs::designByKey("lfsr", 0.0);
  Module M2(Ctx, "other");
  std::string Top2 = compileDesign(D2, M2);
  EXPECT_FALSE(makeInterp(M2, Top2, O)->restore(Image, Err));
  EXPECT_NE(Err.find("module"), std::string::npos) << Err;

  // And the original image still restores fine after all that.
  EXPECT_TRUE(makeInterp(M, Top, O)->restore(Image, Err)) << Err;
}

// An engine whose build failed is invalid on every engine: it reports
// the build error, runs nothing, writes an empty image and refuses to
// restore with the build error.
TEST(Checkpoint, InvalidEnginesNeitherSaveNorRestore) {
  designs::DesignInfo D = designs::designByKey("gray", 0.0);
  Context Ctx;
  Module M(Ctx, "m");
  std::string Top = compileDesign(D, M);
  std::vector<uint8_t> Image;
  makeInterp(M, Top, SimOptions())->checkpoint(Image);
  ASSERT_FALSE(Image.empty());

  auto check = [&](auto &Sim) {
    EXPECT_FALSE(Sim.valid());
    EXPECT_NE(Sim.error().find("nosuch"), std::string::npos) << Sim.error();
    EXPECT_EQ(Sim.run().Steps, 0u);
    std::vector<uint8_t> Out;
    Sim.checkpoint(Out);
    EXPECT_TRUE(Out.empty());
    std::string Err;
    EXPECT_FALSE(Sim.restore(Image, Err));
    EXPECT_EQ(Err, Sim.error());
  };
  BlazeSim Blaze(M, "nosuch");
  check(Blaze);
  BlazeSim::BlazeOptions NoJit;
  NoJit.Jit.M = jit::JitOptions::Mode::Off;
  BlazeSim Lir(M, "nosuch", NoJit);
  check(Lir);
  InterpSim Interp(elaborate(M, "nosuch"));
  check(Interp);
}

// A failed publish returns false and leaves no "<path>.tmp" behind: not
// when the directory is missing, and not when the final rename fails
// (the destination is a directory), where the temporary was written.
TEST(Checkpoint, WriteFileAtomicFailureLeavesNoTemp) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::path(::testing::TempDir()) /
                 ("llhd_ckpt_" + std::to_string(::getpid()));
  fs::create_directories(Dir / "taken");
  const std::vector<uint8_t> Bytes = {1, 2, 3};

  std::string Missing = (Dir / "no" / "img").string();
  EXPECT_FALSE(ckpt::writeFileAtomic(Missing, Bytes));
  EXPECT_FALSE(fs::exists(Missing + ".tmp"));

  std::string Taken = (Dir / "taken").string();
  EXPECT_FALSE(ckpt::writeFileAtomic(Taken, Bytes));
  EXPECT_FALSE(fs::exists(Taken + ".tmp"));
  EXPECT_TRUE(fs::is_directory(Taken));

  std::string Good = (Dir / "img").string();
  EXPECT_TRUE(ckpt::writeFileAtomic(Good, Bytes));
  EXPECT_EQ(fs::file_size(Good), Bytes.size());
  EXPECT_FALSE(fs::exists(Good + ".tmp"));
  fs::remove_all(Dir);
}

} // namespace
