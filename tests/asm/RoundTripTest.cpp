//===- tests/asm/RoundTripTest.cpp - Assembly parse/print round trips -----===//

#include "asm/Parser.h"
#include "asm/Printer.h"
#include "bitcode/Bitcode.h"
#include "designs/Designs.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "moore/Compiler.h"

#include <gtest/gtest.h>

using namespace llhd;

namespace {

/// The Figure 2 testbench, lightly adapted (the @acc DUT from Figure 5 is
/// included so the module is closed).
const char *FIG2 = R"(
entity @acc_tb () -> () {
  %zero0 = const i1 0
  %zero1 = const i32 0
  %clk = sig i1 %zero0
  %en = sig i1 %zero0
  %x = sig i32 %zero1
  %q = sig i32 %zero1
  inst @acc (i1$ %clk, i32$ %x, i1$ %en) -> (i32$ %q)
  inst @acc_tb_initial (i32$ %q) -> (i1$ %clk, i32$ %x, i1$ %en)
}

proc @acc_tb_initial (i32$ %q) -> (i1$ %clk, i32$ %x, i1$ %en) {
entry:
  %bit0 = const i1 0
  %bit1 = const i1 1
  %zero = const i32 0
  %one = const i32 1
  %many = const i32 1337
  %del1ns = const time 1ns
  %del2ns = const time 2ns
  %i = var i32 %zero
  drv i1$ %en, %bit1 after %del2ns
  br %loop
loop:
  %ip = ld i32* %i
  drv i32$ %x, %ip after %del2ns
  drv i1$ %clk, %bit1 after %del1ns
  drv i1$ %clk, %bit0 after %del2ns
  wait %next for %del2ns
next:
  %qp = prb i32$ %q
  call void @acc_tb_check (i32 %ip, i32 %qp)
  %in = add i32 %ip, %one
  st i32* %i, %in
  %cont = ult i32 %ip, %many
  br %cont, %end, %loop
end:
  halt
}

func @acc_tb_check (i32 %i, i32 %q) void {
entry:
  %one = const i32 1
  %two = const i32 2
  %ip1 = add i32 %i, %one
  %ixip1 = mul i32 %i, %ip1
  %qexp = div i32 %ixip1, %two
  %eq = eq i32 %qexp, %q
  call void @llhd.assert (i1 %eq)
  ret
}

entity @acc (i1$ %clk, i32$ %x, i1$ %en) -> (i32$ %q) {
  %zero = const i32 0
  %d = sig i32 %zero
  inst @acc_ff (i1$ %clk, i32$ %d) -> (i32$ %q)
  inst @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d)
}

proc @acc_ff (i1$ %clk, i32$ %d) -> (i32$ %q) {
init:
  %clk0 = prb i1$ %clk
  wait %check for %clk
check:
  %clk1 = prb i1$ %clk
  %chg = neq i1 %clk0, %clk1
  %posedge = and i1 %chg, %clk1
  br %posedge, %init, %event
event:
  %dp = prb i32$ %d
  %delay = const time 1ns
  drv i32$ %q, %dp after %delay
  br %init
}

proc @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d) {
entry:
  %qp = prb i32$ %q
  %enp = prb i1$ %en
  %delay = const time 2ns
  drv i32$ %d, %qp after %delay
  br %enp, %final, %enabled
enabled:
  %xp = prb i32$ %x
  %sum = add i32 %qp, %xp
  drv i32$ %d, %sum after %delay
  br %final
final:
  wait %entry for %q, %x, %en
}
)";

TEST(RoundTrip, Figure2Parses) {
  Context Ctx;
  Module M(Ctx, "fig2");
  ParseResult R = parseModule(FIG2, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(M, Errors)) << (Errors.empty() ? "" : Errors[0]);
  EXPECT_NE(M.unitByName("acc_tb"), nullptr);
  EXPECT_NE(M.unitByName("acc"), nullptr);
  EXPECT_NE(M.unitByName("llhd.assert"), nullptr);
  EXPECT_TRUE(M.unitByName("llhd.assert")->isIntrinsic());
}

TEST(RoundTrip, Figure2PrintStable) {
  // print(parse(T)) must be a fixpoint: parse and print twice, compare.
  Context Ctx;
  Module M1(Ctx, "a");
  ASSERT_TRUE(parseModule(FIG2, M1).Ok);
  std::string P1 = printModule(M1);

  Module M2(Ctx, "b");
  ParseResult R = parseModule(P1, M2);
  ASSERT_TRUE(R.Ok) << R.Error << "\n" << P1;
  std::string P2 = printModule(M2);
  EXPECT_EQ(P1, P2);
}

TEST(RoundTrip, ForwardReferencesResolve) {
  Context Ctx;
  Module M(Ctx, "t");
  ParseResult R = parseModule(FIG2, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  // @acc was referenced by @acc_tb before its definition.
  Unit *Acc = M.unitByName("acc");
  ASSERT_NE(Acc, nullptr);
  EXPECT_FALSE(Acc->isDeclaration());
  EXPECT_TRUE(Acc->isEntity());
  // @acc_tb_initial was instantiated as a process.
  Unit *Init = M.unitByName("acc_tb_initial");
  ASSERT_NE(Init, nullptr);
  EXPECT_TRUE(Init->isProcess());
  // The inst in @acc_tb must point at the definition.
  Unit *Tb = M.unitByName("acc_tb");
  bool Found = false;
  for (Instruction *I : Tb->entry()->insts())
    if (I->opcode() == Opcode::InstOp && I->callee() == Acc)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(RoundTrip, TimeConstants) {
  Context Ctx;
  Module M(Ctx, "t");
  const char *Src = R"(
func @f () void {
entry:
  %a = const time 1ns
  %b = const time 100ps 2d 1e
  %c = const time 0s 1d
  ret
}
)";
  ASSERT_TRUE(parseModule(Src, M).Ok);
  auto Insts = M.unitByName("f")->entry()->insts();
  EXPECT_EQ(Insts[0]->timeValue(), Time::ns(1));
  EXPECT_EQ(Insts[1]->timeValue(), Time(100000, 2, 1));
  EXPECT_EQ(Insts[2]->timeValue(), Time(0, 1, 0));
}

TEST(RoundTrip, TimeValuesWithDeltaEpsilonRoundTrip) {
  // Full (physical, delta, epsilon) time constants must survive
  // Parser -> Printer -> Parser and the Bitcode path bit-exactly,
  // including counter-only times and boundary-sized counters.
  Context Ctx;
  Module M(Ctx, "t");
  const char *Src = R"(
func @f () void {
entry:
  %a = const time 100ps 2d 1e
  %b = const time 0s 1d
  %c = const time 0s 3e
  %d = const time 1ns 4294967295d 4294967295e
  %e = const time 18446744073709551615fs
  ret
}
)";
  ParseResult R = parseModule(Src, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  const Time Expected[] = {Time(100000, 2, 1), Time(0, 1, 0),
                           Time(0, 0, 3),
                           Time(1000000, 4294967295u, 4294967295u),
                           Time(~uint64_t(0), 0, 0)};
  auto checkTimes = [&](Module &Mod, const char *Label) {
    auto Insts = Mod.unitByName("f")->entry()->insts();
    for (size_t I = 0; I != std::size(Expected); ++I)
      EXPECT_EQ(Insts[I]->timeValue(), Expected[I])
          << Label << " inst " << I;
  };
  checkTimes(M, "parsed");

  // Textual round trip reaches a printing fixpoint.
  std::string P1 = printModule(M);
  Module M2(Ctx, "t2");
  ASSERT_TRUE(parseModule(P1, M2).Ok) << P1;
  checkTimes(M2, "reparsed");
  EXPECT_EQ(printModule(M2), P1);

  // Bitcode round trip preserves all three time components.
  std::vector<uint8_t> Bytes = writeBitcode(M);
  Module M3(Ctx, "t3");
  std::string Error;
  ASSERT_TRUE(readBitcode(Bytes, M3, Error)) << Error;
  checkTimes(M3, "bitcode");
  EXPECT_EQ(printModule(M3), P1);
}

TEST(RoundTrip, LogicEnumAggregates) {
  Context Ctx;
  Module M(Ctx, "t");
  const char *Src = R"(
func @f () void {
entry:
  %l = const l4 "01XZ"
  %n = const n6 3
  %a = const i8 1
  %b = const i8 2
  %arr = [i8 %a, %b]
  %s = {i8 %a, l4 %l}
  %el = extf i8 %arr, 1
  %fl = extf l4 %s, 1
  %sl = exts i4 %a, 2
  %up = zext i16 %a
  ret
}
)";
  ParseResult R = parseModule(Src, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::string P1 = printModule(M);
  Module M2(Ctx, "t2");
  // Rename to avoid symbol clash within the shared context.
  Module MFresh(Ctx, "fresh");
  ASSERT_TRUE(parseModule(P1, MFresh).Ok);
  EXPECT_EQ(printModule(MFresh), P1);
  (void)M2;
}

TEST(RoundTrip, RegInstruction) {
  Context Ctx;
  Module M(Ctx, "t");
  const char *Src = R"(
entity @ff (i1$ %clk, i32$ %d) -> (i32$ %q) {
  %delay = const time 1ns
  %clkp = prb i1$ %clk
  %dp = prb i32$ %d
  reg i32$ %q, %dp rise %clkp after %delay
}
)";
  ParseResult R = parseModule(Src, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::string P1 = printModule(M);
  Module M2(Ctx, "u");
  ASSERT_TRUE(parseModule(P1, M2).Ok);
  Module M3(Ctx, "v");
  (void)M3;
  EXPECT_EQ(printModule(M2), P1);
}

TEST(RoundTrip, ParseErrorsAreReported) {
  Context Ctx;
  Module M(Ctx, "t");
  ParseResult R = parseModule("func @f () void { entry: bogus }", M);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("unknown instruction"), std::string::npos);

  Module M2(Ctx, "t2");
  R = parseModule("func @g () void {\nentry:\n  %x = add i32 %nope, %nope\n  ret\n}", M2);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("undefined value"), std::string::npos);
}

TEST(RoundTrip, PhiForwardReference) {
  Context Ctx;
  Module M(Ctx, "t");
  const char *Src = R"(
func @count (i32 %n) i32 {
entry:
  %zero = const i32 0
  %one = const i32 1
  br %loop
loop:
  %i = phi i32 [%zero, %entry], [%in, %loop]
  %in = add i32 %i, %one
  %done = uge i32 %in, %n
  br %done, %loop, %exit
exit:
  ret i32 %in
}
)";
  ParseResult R = parseModule(Src, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(M, Errors)) << (Errors.empty() ? "" : Errors[0]);
}

TEST(RoundTrip, ForwardBlockReferencesKeepLabelOrder) {
  // The first br mentions %else before %then, so %else is created
  // first; the blocks must still come out in label order.
  Context Ctx;
  Module M(Ctx, "t");
  const char *Src = R"(
func @sel (i1 %c, i32 %a, i32 %b) i32 {
entry:
  br %c, %else, %then
then:
  br %join
else:
  br %join
join:
  %r = phi i32 [%a, %then], [%b, %else]
  ret i32 %r
}
)";
  ParseResult R = parseModule(Src, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::vector<std::string> Names;
  for (BasicBlock *BB : M.unitByName("sel")->blocks())
    Names.push_back(BB->name());
  EXPECT_EQ(Names,
            (std::vector<std::string>{"entry", "then", "else", "join"}));
  std::string P1 = printModule(M);
  Module M2(Ctx, "u");
  ASSERT_TRUE(parseModule(P1, M2).Ok);
  EXPECT_EQ(printModule(M2), P1);

  Module M3(Ctx, "v");
  R = parseModule("func @f () void {\na:\n  br %a\na:\n  ret\n}", M3);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("duplicate label 'a'"), std::string::npos)
      << R.Error;
}

// print(parse(T)) is a fixpoint for every Moore-compiled Table 2 design,
// whose if/loop lowering branches forward to blocks defined later.
TEST(RoundTrip, DesignsPrintStable) {
  for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
    Context Ctx;
    Module M(Ctx, D.Key);
    moore::CompileResult CR =
        moore::compileSystemVerilog(D.Source, D.TopModule, M);
    ASSERT_TRUE(CR.Ok) << D.Key << ": " << CR.Error;
    std::string P1 = printModule(M);
    Module M2(Ctx, D.Key + ".reparsed");
    ParseResult R = parseModule(P1, M2);
    ASSERT_TRUE(R.Ok) << D.Key << ": " << R.Error;
    EXPECT_EQ(printModule(M2), P1) << D.Key;
  }
}

TEST(RoundTrip, DeclarationsPrintAndParse) {
  Context Ctx;
  Module M(Ctx, "t");
  const char *Src = R"(
declare func @ext (i32, i32) i32
declare proc @p (i32$) -> (i1$)
func @f (i32 %a) i32 {
entry:
  %r = call i32 @ext (i32 %a, i32 %a)
  ret i32 %r
}
)";
  ParseResult R = parseModule(Src, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(M.unitByName("ext")->isDeclaration());
  std::string P1 = printModule(M);
  Module M2(Ctx, "u");
  ASSERT_TRUE(parseModule(P1, M2).Ok);
  EXPECT_EQ(printModule(M2), P1);
}

TEST(RoundTrip, LinkResolvesDeclarations) {
  Context Ctx;
  Module A(Ctx, "a");
  ASSERT_TRUE(parseModule(R"(
declare func @mulacc (i32, i32) i32
func @user (i32 %x) i32 {
entry:
  %r = call i32 @mulacc (i32 %x, i32 %x)
  ret i32 %r
}
)", A).Ok);
  Module B(Ctx, "b");
  ASSERT_TRUE(parseModule(R"(
func @mulacc (i32 %a, i32 %b) i32 {
entry:
  %r = mul i32 %a, %b
  ret i32 %r
}
)", B).Ok);
  std::string Err;
  ASSERT_TRUE(A.linkFrom(B, Err)) << Err;
  Unit *Def = A.unitByName("mulacc");
  ASSERT_NE(Def, nullptr);
  EXPECT_FALSE(Def->isDeclaration());
  // The call in @user now targets the definition.
  for (Instruction *I : A.unitByName("user")->entry()->insts())
    if (I->opcode() == Opcode::Call)
      EXPECT_EQ(I->callee(), Def);
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(A, Errors)) << (Errors.empty() ? "" : Errors[0]);
}

} // namespace
