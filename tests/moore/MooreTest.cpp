//===- tests/moore/MooreTest.cpp - SystemVerilog frontend tests -----------===//
//
// Compiles SystemVerilog through the Moore frontend and simulates the
// result, including the paper's Figure 3 accumulator + testbench.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"
#include "asm/Printer.h"
#include "moore/Compiler.h"
#include "sim/Interp.h"

#include <gtest/gtest.h>

using namespace llhd;

namespace {

struct MooreTest : public ::testing::Test {
  Context Ctx;
  Module M{Ctx, "t"};

  std::string compile(const char *Src, const char *Top) {
    moore::CompileResult R = moore::compileSystemVerilog(Src, Top, M);
    EXPECT_TRUE(R.Ok) << R.Error;
    if (!R.Ok)
      return "";
    std::vector<std::string> Errors;
    EXPECT_TRUE(verifyModule(M, Errors))
        << (Errors.empty() ? "" : Errors[0]) << "\n" << printModule(M);
    return R.TopUnit;
  }

  SimStats simulate(const std::string &Top,
                    SimOptions Opts = SimOptions()) {
    Design D = elaborate(M, Top);
    EXPECT_TRUE(D.ok()) << D.Error;
    LastSim = std::make_unique<InterpSim>(std::move(D), Opts);
    return LastSim->run();
  }

  RtValue signalValue(const std::string &Suffix) {
    const SignalTable &S = LastSim->signals();
    for (SignalId I = 0; I != S.size(); ++I) {
      const std::string &N = S.name(I);
      if (N.size() >= Suffix.size() &&
          N.compare(N.size() - Suffix.size(), Suffix.size(), Suffix) == 0)
        return S.value(I);
    }
    return RtValue();
  }

  std::unique_ptr<InterpSim> LastSim;
};

TEST_F(MooreTest, CounterWithInitialStimulus) {
  const char *Src = R"(
module counter (input clk, input rst, output bit [7:0] q);
  always_ff @(posedge clk) begin
    if (rst) q <= 8'd0;
    else     q <= q + 8'd1;
  end
endmodule

module counter_tb;
  bit clk, rst;
  bit [7:0] q;
  counter dut (.clk(clk), .rst(rst), .q(q));
  initial begin
    repeat (10) begin
      #1ns; clk = 1;
      #1ns; clk = 0;
    end
    assert(q == 8'd10);
    $finish;
  end
endmodule
)";
  std::string Top = compile(Src, "counter_tb");
  ASSERT_FALSE(Top.empty());
  SimStats St = simulate(Top);
  EXPECT_EQ(St.AssertFailures, 0u);
  EXPECT_EQ(signalValue("/q").intValue().zextToU64(), 10u);
}

TEST_F(MooreTest, Figure3Accumulator) {
  // The paper's Figure 3 design, with delta-exact timing (see
  // DESIGN.md): comb delay 0, FF delay 1ns.
  const char *Src = R"(
module acc (input clk, input [31:0] x, input en, output [31:0] q);
  bit [31:0] d;
  always_ff @(posedge clk) q <= #1ns d;
  always_comb begin
    d = q;
    if (en) d = q + x;
  end
endmodule

module acc_tb;
  bit clk, en;
  bit [31:0] x, q;
  acc i_dut (.*);
  initial begin
    bit [31:0] i;
    i = 0;
    en = 1;
    do begin
      x = i;
      clk = #1ns 1;
      clk = #2ns 0;
      #2ns;
      check(i, q);
      i = i + 1;
    end while (i < 100);
    $finish;
  end
  function check(bit [31:0] i, bit [31:0] q);
    assert(q == i*(i+1)/2);
  endfunction
endmodule
)";
  std::string Top = compile(Src, "acc_tb");
  ASSERT_FALSE(Top.empty());
  SimStats St = simulate(Top);
  EXPECT_TRUE(St.Finished);
  EXPECT_EQ(St.AssertFailures, 0u);
}

TEST_F(MooreTest, ParametersAndHierarchy) {
  const char *Src = R"(
module adder #(parameter W = 8) (input [W-1:0] a, input [W-1:0] b,
                                 output [W-1:0] s);
  assign s = a + b;
endmodule

module top;
  bit [15:0] a, b, s;
  adder #(.W(16)) u (.a(a), .b(b), .s(s));
  initial begin
    a = 16'd1000;
    b = 16'd234;
    #1ns;
    assert(s == 16'd1234);
    $finish;
  end
endmodule
)";
  std::string Top = compile(Src, "top");
  ASSERT_FALSE(Top.empty());
  SimStats St = simulate(Top);
  EXPECT_EQ(St.AssertFailures, 0u);
}

TEST_F(MooreTest, UnrolledForLoopAndFunctions) {
  const char *Src = R"(
module parity8 (input [7:0] d, output bit p);
  always_comb begin
    bit [0:0] acc;
    acc = 0;
    for (int i = 0; i < 8; i++) acc = acc ^ d[i];
    p = acc;
  end
endmodule

module top;
  bit [7:0] d;
  bit p;
  parity8 u (.d(d), .p(p));
  initial begin
    d = 8'b1011_0001;
    #1ns;
    assert(p == 1'b0);
    d = 8'b1011_0000;
    #1ns;
    assert(p == 1'b1);
    $finish;
  end
endmodule
)";
  std::string Top = compile(Src, "top");
  ASSERT_FALSE(Top.empty());
  SimStats St = simulate(Top);
  EXPECT_EQ(St.AssertFailures, 0u);
}

TEST_F(MooreTest, MemoryArrayReadWrite) {
  const char *Src = R"(
module regfile (input clk, input we, input [1:0] waddr,
                input [7:0] wdata, input [1:0] raddr,
                output [7:0] rdata);
  bit [7:0] mem [0:3];
  always_ff @(posedge clk) begin
    if (we) mem[waddr] <= wdata;
  end
  assign rdata = mem[raddr];
endmodule

module top;
  bit clk, we;
  bit [1:0] waddr, raddr;
  bit [7:0] wdata, rdata;
  regfile u (.*);
  initial begin
    we = 1; waddr = 2; wdata = 8'hab;
    #1ns; clk = 1; #1ns; clk = 0;
    waddr = 1; wdata = 8'hcd;
    #1ns; clk = 1; #1ns; clk = 0;
    we = 0;
    raddr = 2; #1ns;
    assert(rdata == 8'hab);
    raddr = 1; #1ns;
    assert(rdata == 8'hcd);
    $finish;
  end
endmodule
)";
  std::string Top = compile(Src, "top");
  ASSERT_FALSE(Top.empty());
  SimStats St = simulate(Top);
  EXPECT_EQ(St.AssertFailures, 0u);
}

TEST_F(MooreTest, CaseStatement) {
  const char *Src = R"(
module dec (input [1:0] sel, output bit [3:0] y);
  always_comb begin
    case (sel)
      2'd0: y = 4'b0001;
      2'd1: y = 4'b0010;
      2'd2: y = 4'b0100;
      default: y = 4'b1000;
    endcase
  end
endmodule

module top;
  bit [1:0] sel;
  bit [3:0] y;
  dec u (.*);
  initial begin
    sel = 0; #1ns; assert(y == 4'b0001);
    sel = 1; #1ns; assert(y == 4'b0010);
    sel = 2; #1ns; assert(y == 4'b0100);
    sel = 3; #1ns; assert(y == 4'b1000);
    $finish;
  end
endmodule
)";
  std::string Top = compile(Src, "top");
  ASSERT_FALSE(Top.empty());
  SimStats St = simulate(Top);
  EXPECT_EQ(St.AssertFailures, 0u);
}

// `break` leaves the codegen in a block nothing branches to: an empty one
// is erased, and code after a `case` whose arms all leave sits in an
// unreachable block that reads the entry's variables. Both verify and
// simulate.
TEST_F(MooreTest, BreakAndDeadCode) {
  const char *Src = R"(
module brk_tb;
  bit [7:0] x, y;
  initial begin
    bit [7:0] i;
    i = 0;
    forever begin
      if (i == 8'd3) break;
      i = i + 8'd1;
    end
    x = i;
    forever begin
      case (i)
        8'd3: break;
        default: break;
      endcase
      i = i + 8'd1;
    end
    y = i + 8'd1;
  end
endmodule
)";
  std::string Top = compile(Src, "brk_tb");
  ASSERT_FALSE(Top.empty());
  simulate(Top);
  EXPECT_EQ(signalValue("/x").intValue().zextToU64(), 3u);
  EXPECT_EQ(signalValue("/y").intValue().zextToU64(), 4u);
}

TEST_F(MooreTest, ConcatSliceOps) {
  const char *Src = R"(
module top;
  bit [7:0] a;
  bit [15:0] w;
  initial begin
    a = 8'h5a;
    w = {a, 8'h0f};
    #1ns;
    assert(w == 16'h5a0f);
    assert(w[11:8] == 4'ha);
    assert(w[0] == 1'b1);
    assert({2{a[3:0]}} == 8'haa);
    $finish;
  end
endmodule
)";
  std::string Top = compile(Src, "top");
  ASSERT_FALSE(Top.empty());
  SimStats St = simulate(Top);
  EXPECT_EQ(St.AssertFailures, 0u);
}

TEST_F(MooreTest, AsyncResetFF) {
  const char *Src = R"(
module ff (input clk, input rst_n, input [3:0] d, output [3:0] q);
  always_ff @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 4'd0;
    else        q <= d;
  end
endmodule

module top;
  bit clk, rst_n;
  bit [3:0] d, q;
  ff u (.*);
  initial begin
    rst_n = 1; d = 4'd5;
    #1ns; clk = 1; #1ns; clk = 0;
    assert(q == 4'd5);
    rst_n = 0; #1ns;          // Async clear without a clock edge.
    assert(q == 4'd0);
    rst_n = 1; d = 4'd9;
    #1ns; clk = 1; #1ns; clk = 0;
    assert(q == 4'd9);
    $finish;
  end
endmodule
)";
  std::string Top = compile(Src, "top");
  ASSERT_FALSE(Top.empty());
  SimStats St = simulate(Top);
  EXPECT_EQ(St.AssertFailures, 0u);
}

TEST_F(MooreTest, DynamicPartSelectAssignment) {
  // x[i +: W] with a dynamic base lowers to a shift/mask
  // read-modify-write on the packed vector.
  const char *Src = R"(
module dynsel_tb;
  bit [7:0] x;
  bit [2:0] i;
  initial begin
    x = 8'hFF;
    i = 3'd2;
    #1ns;
    x[i +: 3] = 3'b010;
    #1ns;
    assert(x == 8'hEB);
    x[i +: 3] = 3'b111;
    #1ns;
    assert(x == 8'hFF);
    $finish;
  end
endmodule
)";
  std::string Top = compile(Src, "dynsel_tb");
  ASSERT_FALSE(Top.empty());
  SimStats S = simulate(Top);
  EXPECT_EQ(S.AssertFailures, 0u);
  EXPECT_TRUE(S.Finished);
  EXPECT_EQ(signalValue("/x").intValue().zextToU64(), 0xFFu);
}

TEST_F(MooreTest, ReportsUnknownModule) {
  moore::CompileResult R =
      moore::compileSystemVerilog("module a; endmodule", "missing", M);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("missing"), std::string::npos);
}

TEST_F(MooreTest, ReportsSyntaxError) {
  moore::CompileResult R = moore::compileSystemVerilog(
      "module a; always_comb begin x = ; end endmodule", "a", M);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("line"), std::string::npos);
}

} // namespace
