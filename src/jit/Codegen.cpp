//===- jit/Codegen.cpp - LIR to C++ translation ---------------------------===//
//
// Planning decides, per process, whether every op runs over the LIR word
// file (sim/Lir.h), the ops of every function it calls included;
// emission then prints one C++ function per surviving process, preceded
// by a static function per callee. Numeric semantics: jit/Prelude.h.
//
//===----------------------------------------------------------------------===//

#include "jit/Codegen.h"
#include "ir/BasicBlock.h"
#include "ir/Type.h"
#include "ir/Unit.h"

#include <algorithm>
#include <cassert>
#include <cstdarg>
#include <cstdio>
#include <set>

using namespace llhd;
using namespace llhd::jit;

namespace {

/// printf-append into a std::string.
void f(std::string &S, const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  S += Buf;
}

struct Planner {
  const LirUnit &L;
  UnitPlan &P;
  /// The process plan under construction: it collects every function
  /// plan and numbers every intrinsic site, the callees' included.
  UnitPlan &Root;
  /// Functions being planned, outermost first (recursion detection).
  std::vector<const LirUnit *> &Active;
  bool Fn; ///< Function mode: P plans a callee.
  std::vector<uint8_t> Written; ///< Slot is some op's Dst.
  /// Defined functions this unit calls, in first-call order; planned
  /// after the unit's own ops, so its intrinsic sites stay contiguous.
  std::vector<const LirUnit *> Callees;

  Planner(const LirUnit &L, UnitPlan &P, UnitPlan &Root,
          std::vector<const LirUnit *> &Active, bool Fn)
      : L(L), P(P), Root(Root), Active(Active), Fn(Fn) {}

  bool deopt(const std::string &R) {
    if (P.DeoptReason.empty())
      P.DeoptReason = R;
    return false;
  }

  bool isArray(int32_t Slot) const {
    return !L.Slots[Slot].Word && L.Slots[Slot].Len;
  }

  /// A slot the word file holds: a word slot or a word array.
  bool words(int32_t Slot) {
    if (!L.Slots[Slot].Len)
      return deopt("slot v" + std::to_string(Slot) +
                   " has a type outside the two-state <=64-bit model");
    return true;
  }

  /// A word slot of width \p W.
  bool scalar(int32_t Slot, unsigned &W) {
    W = L.Slots[Slot].Width;
    if (!L.Slots[Slot].Word)
      return deopt("slot v" + std::to_string(Slot) +
                   " is not a two-state <=64-bit integer");
    return true;
  }

  /// A word array of \p N elements of width \p W.
  bool array(int32_t Slot, unsigned &W, uint32_t &N) {
    W = L.Slots[Slot].Width;
    N = L.Slots[Slot].Len;
    if (!isArray(Slot))
      return deopt("slot v" + std::to_string(Slot) +
                   " is not a flat array of <=64-bit integers");
    return true;
  }

  /// A signal slot usable by a bind-time site: its reference must be
  /// the preloaded binding, i.e. nothing in the unit may overwrite it.
  bool staticSignal(int32_t Slot) {
    if (!L.Slots[Slot].Ty || !L.Slots[Slot].Ty->isSignal())
      return deopt("operand v" + std::to_string(Slot) + " is not a signal");
    if (Written[Slot])
      return deopt("signal slot v" + std::to_string(Slot) +
                   " is computed at runtime");
    return true;
  }

  /// A time slot consumed by a site: must be in the constant preloads.
  bool constTime(int32_t Slot) {
    for (const auto &[CS, V] : L.ConstSlots)
      if ((int32_t)CS == Slot && V.isTime())
        return true;
    return deopt("non-constant time in slot v" + std::to_string(Slot));
  }

  bool planPure(const LirOp &Op);
  bool planCall(uint32_t Pc, const LirOp &Op);
  bool planOp(uint32_t Pc, const LirOp &Op);
  bool planFn(const LirUnit &CL);
  bool run();
};

bool Planner::planPure(const LirOp &Op) {
  const int32_t *Ops = L.OperandPool.data() + Op.OpsBase;
  unsigned Wa, Wb, Wd;
  uint32_t Na, Nb, Nd;
  switch (Op.IrOp) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Udiv:
  case Opcode::Sdiv:
  case Opcode::Umod:
  case Opcode::Smod:
  case Opcode::Urem:
  case Opcode::Srem:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
    if (!scalar(Ops[0], Wa) || !scalar(Ops[1], Wb) || !scalar(Op.Dst, Wd))
      return false;
    if (Wa != Wb || Wa != Wd)
      return deopt("mixed operand widths in arithmetic");
    return true;
  case Opcode::Eq:
  case Opcode::Neq:
  case Opcode::Ult:
  case Opcode::Ugt:
  case Opcode::Ule:
  case Opcode::Uge:
  case Opcode::Slt:
  case Opcode::Sgt:
  case Opcode::Sle:
  case Opcode::Sge:
    if (!scalar(Ops[0], Wa) || !scalar(Ops[1], Wb) || !scalar(Op.Dst, Wd))
      return false;
    if (Wa != Wb)
      return deopt("mixed operand widths in comparison");
    return true;
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Ashr:
    // The amount has its own width; <=64 keeps zextToU64 exact.
    return scalar(Ops[0], Wa) && scalar(Ops[1], Wb) && scalar(Op.Dst, Wd);
  case Opcode::Neg:
  case Opcode::Not:
  case Opcode::Zext:
  case Opcode::Sext:
  case Opcode::Trunc:
    return scalar(Ops[0], Wa) && scalar(Op.Dst, Wd);
  case Opcode::Mux:
    return array(Ops[0], Wa, Na) && scalar(Ops[1], Wb) &&
           scalar(Op.Dst, Wd);
  case Opcode::ArrayCreate: {
    if (!array(Op.Dst, Wd, Nd))
      return false;
    if (Nd != Op.OpsCount)
      return deopt("array create arity mismatch");
    for (uint32_t J = 0; J != Op.OpsCount; ++J)
      if (!scalar(Ops[J], Wa))
        return false;
    return true;
  }
  case Opcode::Extf:
    if (!isArray(Ops[0]))
      return deopt("extf on a non-array value");
    return array(Ops[0], Wa, Na) && scalar(Op.Dst, Wd);
  case Opcode::Exts:
    if (isArray(Ops[0]))
      return array(Ops[0], Wa, Na) && array(Op.Dst, Wd, Nd);
    return scalar(Ops[0], Wa) && scalar(Op.Dst, Wd);
  case Opcode::Insf:
    if (!isArray(Ops[0]))
      return deopt("insf on a non-array value");
    return array(Ops[0], Wa, Na) && scalar(Ops[1], Wb) &&
           array(Op.Dst, Wd, Nd);
  case Opcode::Inss:
    if (isArray(Ops[0]))
      return array(Ops[0], Wa, Na) && array(Ops[1], Wb, Nb) &&
             array(Op.Dst, Wd, Nd);
    return scalar(Ops[0], Wa) && scalar(Ops[1], Wb) && scalar(Op.Dst, Wd);
  default:
    return deopt(std::string("unsupported pure op '") +
                 opcodeName(Op.IrOp) + "'");
  }
}

bool Planner::planCall(uint32_t Pc, const LirOp &Op) {
  const int32_t *Ops = L.OperandPool.data() + Op.OpsBase;
  unsigned W;
  Unit *Callee = Op.Callee;
  if (!Callee)
    return deopt("call to an unknown function");
  std::string Name = "'@" + Callee->name() + "'";
  if (Callee->isIntrinsic()) {
    if (Op.Intr == IntrinsicKind::Assert && Op.OpsCount == 1) {
      if (!scalar(Ops[0], W))
        return false;
      P.Calls.push_back({Pc, IntrinsicKind::Assert});
      return true;
    }
    if (Op.Intr == IntrinsicKind::Finish && Op.OpsCount == 0) {
      P.Calls.push_back({Pc, IntrinsicKind::Finish});
      return true;
    }
    return deopt("unsupported intrinsic " + Name);
  }
  const LirUnit *CL = L.callee(Callee);
  if (!CL)
    return deopt("call to function " + Name + " with no lowered body");
  if (std::find(Active.begin(), Active.end(), CL) != Active.end())
    return deopt("recursive call to function " + Name);
  for (Argument *A : Callee->inputs())
    if (!isWordType(A->type()))
      return deopt("call to function " + Name +
                   " with an argument outside the two-state <=64-bit "
                   "integer model");
  if (!Callee->returnType()->isVoid() && !isWordType(Callee->returnType()))
    return deopt("call to function " + Name +
                 " with a result outside the two-state <=64-bit "
                 "integer model");
  for (uint32_t J = 0; J != Op.OpsCount; ++J)
    if (!scalar(Ops[J], W))
      return false;
  if (Op.Dst >= 0 && !scalar(Op.Dst, W))
    return false;
  if (std::find(Callees.begin(), Callees.end(), CL) == Callees.end())
    Callees.push_back(CL);
  return true;
}

/// Plans the callee \p CL in function mode and appends it (after its
/// own callees) to the process plan; a failure deopts the caller.
bool Planner::planFn(const LirUnit &CL) {
  for (const UnitPlan &FP : Root.Fns)
    if (FP.L == &CL)
      return true;
  UnitPlan FP;
  FP.L = &CL;
  Active.push_back(&CL);
  Planner Pl(CL, FP, Root, Active, /*Fn=*/true);
  bool Ok = Pl.run();
  Active.pop_back();
  if (!Ok)
    return deopt("in function '@" + CL.U->name() + "': " + FP.DeoptReason);
  FP.Native = true;
  FP.NeedsApi = !FP.Calls.empty();
  for (const LirUnit *G : Pl.Callees)
    for (const UnitPlan &GP : Root.Fns)
      FP.NeedsApi |= GP.L == G && GP.NeedsApi;
  FP.CallBase = Root.Calls.size();
  Root.Calls.insert(Root.Calls.end(), FP.Calls.begin(), FP.Calls.end());
  Root.Fns.push_back(std::move(FP));
  return true;
}

bool Planner::planOp(uint32_t Pc, const LirOp &Op) {
  const int32_t *Ops = L.OperandPool.data() + Op.OpsBase;
  unsigned W;
  // The planner reads what each op does; native code runs every op over
  // the word file, whichever form the interpreter runs.
  LirOpc C = baseOpc(Op.C);
  // A function has no signals and never suspends: its only side
  // effects are intrinsic calls.
  if (Fn && (C == LirOpc::Prb || C == LirOpc::Drv || C == LirOpc::Wait ||
             C == LirOpc::Halt))
    return deopt(std::string("op '") + lirOpcName(C) + "' in a function");
  switch (C) {
  case LirOpc::Pure:
    return planPure(Op);
  case LirOpc::Prb:
    if (!staticSignal(Op.A) || !words(Op.Dst))
      return false;
    P.Prbs.push_back({Pc, Op.A});
    return true;
  case LirOpc::Drv: {
    if (!staticSignal(Op.A) || !constTime(Op.Cc))
      return false;
    if (Op.Dd >= 0 && !scalar(Op.Dd, W))
      return false;
    DrvPlan D;
    D.Pc = Pc;
    D.SigSlot = Op.A;
    D.DelaySlot = Op.Cc;
    D.Origin = Op.Origin;
    D.Width = L.Slots[Op.B].Width;
    D.NumElems = isArray(Op.B) ? L.Slots[Op.B].Len : 0;
    if (!words(Op.B))
      return false;
    P.Drvs.push_back(D);
    return true;
  }
  case LirOpc::Wait: {
    WaitPlan Wp;
    Wp.Pc = Pc;
    for (uint32_t J = 0; J != Op.OpsCount; ++J) {
      if (!staticSignal(Ops[J]))
        return false;
      Wp.Observed.push_back(Ops[J]);
    }
    if (Op.A >= 0) {
      if (!constTime(Op.A))
        return false;
      Wp.TimeoutSlot = Op.A;
    }
    Wp.ResumeEntry = (int32_t)P.Waits.size() + 1;
    P.Waits.push_back(std::move(Wp));
    return true;
  }
  case LirOpc::Halt:
  case LirOpc::Jmp:
    return true;
  case LirOpc::CondJmp:
    return scalar(Op.A, W);
  case LirOpc::Copy:
  case LirOpc::Var:
  case LirOpc::Ld:
  case LirOpc::St: {
    // A copy between two slots, or a fixed var cell (Imm) and a slot, of
    // one layout.
    if (Op.C == LirOpc::VarM || Op.C == LirOpc::LdM || Op.C == LirOpc::StM)
      return deopt("var cell reached through an escaping pointer");
    int32_t D = C == LirOpc::Copy || C == LirOpc::Ld ? Op.Dst : Op.Imm;
    int32_t S = C == LirOpc::Ld ? Op.Imm : C == LirOpc::St ? Op.B : Op.A;
    const LirSlot &Sd = L.Slots[D], &Ss = L.Slots[S];
    if (!words(S) || Sd.Len != Ss.Len || Sd.Word != Ss.Word ||
        Sd.Width != Ss.Width)
      return deopt("copy of a value outside the word file");
    return true;
  }
  case LirOpc::Call:
    return planCall(Pc, Op);
  case LirOpc::Ret:
    if (Fn)
      return Op.A < 0 || scalar(Op.A, W);
    break;
  default:
    break;
  }
  return deopt(std::string("op '") + lirOpcName(C) + "' in a " +
               (Fn ? "function" : "process"));
}

bool Planner::run() {
  Written.assign(L.NumSlots, 0);
  for (const LirOp &Op : L.Ops)
    if (Op.Dst >= 0)
      Written[Op.Dst] = 1;

  // A function's arguments arrive in words.
  unsigned W;
  if (Fn)
    for (Argument *A : L.U->inputs())
      if (!scalar(A->valueNumber(), W))
        return false;

  for (uint32_t Pc = 0; Pc != L.Ops.size(); ++Pc)
    if (!planOp(Pc, L.Ops[Pc]))
      return false;
  for (const LirUnit *CL : Callees)
    if (!planFn(*CL))
      return false;
  return true;
}

} // namespace

UnitPlan jit::planUnit(const LirUnit &L) {
  if (!L.U->isProcess()) {
    UnitPlan P;
    P.L = &L;
    P.DeoptReason = "not a process";
    return P;
  }
  UnitPlan P;
  P.L = &L;
  std::vector<const LirUnit *> Active;
  Planner Pl(L, P, P, Active, /*Fn=*/false);
  P.Native = Pl.run();
  if (!P.Native && P.DeoptReason.empty())
    P.DeoptReason = "unsupported shape";
  return P;
}

//===----------------------------------------------------------------------===//
// Emission
//===----------------------------------------------------------------------===//

std::string jit::emitPrelude() {
  return
#include "jit/Prelude.inc"
      ;
}

namespace {

/// Per-function emission state: the plan plus site counters advancing
/// in pc order (sites were recorded in pc order by the planner).
struct Emitter {
  UnitPlan &P;
  const LirUnit &L;
  /// The process plan's functions, symbols set (callees of this unit).
  const std::vector<UnitPlan> &Fns;
  /// What the emitted function returns when its fuel runs out: -2 from
  /// a process, the zero result from a function.
  const char *Starved;
  std::string S;
  size_t PrbI = 0, DrvI = 0, CallI = 0, WaitI = 0;

  /// Slot or cell \p Slot in the word file: a word slot's word, a word
  /// array's first word.
  std::string sl(int32_t Slot) const {
    return "s[" + std::to_string(Slot) + "]";
  }
  int32_t la(int32_t Slot) const { return L.Slots[Slot].Base; }
  uint32_t len(int32_t Slot) const { return L.Slots[Slot].Len; }
  unsigned wOf(int32_t Slot) const { return L.Slots[Slot].Width; }
  bool isArraySlot(int32_t Slot) const { return !L.Slots[Slot].Word; }

  void copyWords(int32_t Dst, int32_t Src, uint32_t N) {
    if (N == 1) {
      f(S, "  s[%d] = s[%d];\n", Dst, Src);
      return;
    }
    f(S, "  { for (unsigned j = 0; j != %uu; ++j) s[%d + j] = "
         "s[%d + j]; }\n",
      N, Dst, Src);
  }

  /// Backward jumps carry the runaway guard (MaxBackwardJumps).
  void jumpTo(int32_t Target, uint32_t Pc) {
    if (Target <= (int32_t)Pc)
      f(S, "  if (!--fuel) return %s;\n", Starved);
    f(S, "  goto L%d;\n", Target);
  }

  void emitPure(const LirOp &Op);
  void emitCall(uint32_t Pc, const LirOp &Op);
  void emitOp(uint32_t Pc, const LirOp &Op);
  void emitBody();
};

void Emitter::emitPure(const LirOp &Op) {
  const int32_t *Ops = L.OperandPool.data() + Op.OpsBase;
  std::string D = sl(Op.Dst);
  unsigned W = wOf(Op.Dst);
  auto bin = [&](const char *Fmt) {
    f(S, "  %s = ", D.c_str());
    f(S, Fmt, sl(Ops[0]).c_str(), sl(Ops[1]).c_str(), wOf(Ops[0]));
    S += ";\n";
  };
  auto scmp = [&](const char *Rel, const int32_t *O) {
    f(S, "  %s = (u64)(jsx(%s, %uu) %s jsx(%s, %uu));\n", D.c_str(),
      sl(O[0]).c_str(), wOf(O[0]), Rel, sl(O[1]).c_str(), wOf(O[1]));
  };
  switch (Op.IrOp) {
  case Opcode::Add:
    bin("jm(%s + %s, %uu)");
    break;
  case Opcode::Sub:
    bin("jm(%s - %s, %uu)");
    break;
  case Opcode::Mul:
    bin("jm(%s * %s, %uu)");
    break;
  case Opcode::And:
    bin("%s & %s");
    break;
  case Opcode::Or:
    bin("%s | %s");
    break;
  case Opcode::Xor:
    bin("%s ^ %s");
    break;
  case Opcode::Udiv:
    bin("judiv(%s, %s, %uu)");
    break;
  case Opcode::Umod:
  case Opcode::Urem:
    bin("jurem(%s, %s)");
    break;
  case Opcode::Sdiv:
    bin("jsdiv(%s, %s, %uu)");
    break;
  case Opcode::Srem:
    bin("jsrem(%s, %s, %uu)");
    break;
  case Opcode::Smod:
    bin("jsmod(%s, %s, %uu)");
    break;
  case Opcode::Shl:
    bin("jshl(%s, %s, %uu)");
    break;
  case Opcode::Shr:
    bin("jshr(%s, %s, %uu)");
    break;
  case Opcode::Ashr:
    bin("jashr(%s, %s, %uu)");
    break;
  case Opcode::Eq:
    bin("(u64)(%s == %s)");
    break;
  case Opcode::Neq:
    bin("(u64)(%s != %s)");
    break;
  case Opcode::Ult:
    bin("(u64)(%s < %s)");
    break;
  case Opcode::Ugt:
    bin("(u64)(%s > %s)");
    break;
  case Opcode::Ule:
    bin("(u64)(%s <= %s)");
    break;
  case Opcode::Uge:
    bin("(u64)(%s >= %s)");
    break;
  case Opcode::Slt:
    scmp("<", Ops);
    break;
  case Opcode::Sgt:
    scmp(">", Ops);
    break;
  case Opcode::Sle:
    scmp("<=", Ops);
    break;
  case Opcode::Sge:
    scmp(">=", Ops);
    break;
  case Opcode::Neg:
    f(S, "  %s = jm(0 - %s, %uu);\n", D.c_str(), sl(Ops[0]).c_str(), W);
    break;
  case Opcode::Not:
    f(S, "  %s = jm(~%s, %uu);\n", D.c_str(), sl(Ops[0]).c_str(), W);
    break;
  case Opcode::Zext:
    f(S, "  %s = %s;\n", D.c_str(), sl(Ops[0]).c_str());
    break;
  case Opcode::Sext:
    f(S, "  %s = jm((u64)jsx(%s, %uu), %uu);\n", D.c_str(),
      sl(Ops[0]).c_str(), wOf(Ops[0]), W);
    break;
  case Opcode::Trunc:
    f(S, "  %s = jm(%s, %uu);\n", D.c_str(), sl(Ops[0]).c_str(), W);
    break;
  case Opcode::Mux: {
    uint32_t N = len(Ops[0]);
    f(S, "  { u64 i = %s; if (i >= %uu) i = %uu; %s = s[%d + i]; }\n",
      sl(Ops[1]).c_str(), N, N - 1, D.c_str(), la(Ops[0]));
    break;
  }
  case Opcode::ArrayCreate:
    for (uint32_t J = 0; J != Op.OpsCount; ++J)
      f(S, "  s[%d] = %s;\n", la(Op.Dst) + (int32_t)J,
        sl(Ops[J]).c_str());
    break;
  case Opcode::Extf:
    f(S, "  %s = s[%d];\n", D.c_str(), la(Ops[0]) + (int32_t)Op.Imm);
    break;
  case Opcode::Exts:
    if (isArraySlot(Ops[0]))
      copyWords(la(Op.Dst), la(Ops[0]) + (int32_t)Op.Imm, len(Op.Dst));
    else
      f(S, "  %s = jm(%s >> %uu, %uu);\n", D.c_str(),
        sl(Ops[0]).c_str(), Op.Imm, W);
    break;
  case Opcode::Insf:
    copyWords(la(Op.Dst), la(Ops[0]), len(Op.Dst));
    f(S, "  s[%d] = %s;\n", la(Op.Dst) + (int32_t)Op.Imm,
      sl(Ops[1]).c_str());
    break;
  case Opcode::Inss:
    if (isArraySlot(Ops[0])) {
      copyWords(la(Op.Dst), la(Ops[0]), len(Op.Dst));
      copyWords(la(Op.Dst) + (int32_t)Op.Imm, la(Ops[1]), len(Ops[1]));
    } else {
      unsigned SrcW = wOf(Ops[1]);
      if (SrcW == 0) {
        f(S, "  %s = %s;\n", D.c_str(), sl(Ops[0]).c_str());
      } else {
        uint64_t Keep = ~(IntValue::maskOf(SrcW) << Op.Imm);
        f(S, "  %s = jm((%s & 0x%llxull) | (%s << %uu), %uu);\n",
          D.c_str(), sl(Ops[0]).c_str(), (unsigned long long)Keep,
          sl(Ops[1]).c_str(), Op.Imm, W);
      }
    }
    break;
  default:
    break; // Unreachable: planPure admitted only the cases above.
  }
}

void Emitter::emitOp(uint32_t Pc, const LirOp &Op) {
  switch (baseOpc(Op.C)) {
  case LirOpc::Pure:
    emitPure(Op);
    break;
  case LirOpc::Prb: {
    assert(P.Prbs[PrbI].Pc == Pc);
    if (isArraySlot(Op.Dst))
      f(S, "  api->prb_arr(ctx, %zuu, s + %d, %uu);\n", PrbI,
        la(Op.Dst), len(Op.Dst));
    else
      f(S, "  s[%d] = api->prb(ctx, %zuu);\n", la(Op.Dst), PrbI);
    ++PrbI;
    break;
  }
  case LirOpc::Drv: {
    const DrvPlan &D = P.Drvs[DrvI];
    assert(D.Pc == Pc);
    std::string Ind = "  ";
    if (Op.Dd >= 0) {
      f(S, "  if (%s) {\n  ", sl(Op.Dd).c_str());
      Ind = "    ";
    }
    if (D.NumElems)
      f(S, "%sapi->drv_arr(ctx, %zuu, s + %d, %uu);\n", Ind.c_str(),
        DrvI, la(Op.B), D.NumElems);
    else
      f(S, "%sapi->drv(ctx, %zuu, %s);\n", Ind.c_str(), DrvI,
        sl(Op.B).c_str());
    if (Op.Dd >= 0)
      S += "  }\n";
    ++DrvI;
    break;
  }
  case LirOpc::Wait:
    assert(P.Waits[WaitI].Pc == Pc);
    f(S, "  return %zu;\n", WaitI);
    ++WaitI;
    break;
  case LirOpc::Halt:
    S += "  return -1;\n";
    break;
  case LirOpc::Jmp:
    jumpTo(Op.Jmp0, Pc);
    break;
  case LirOpc::CondJmp:
    f(S, "  if (%s) {\n", sl(Op.A).c_str());
    if (Op.Jmp1 <= (int32_t)Pc)
      f(S, "    if (!--fuel) return %s;\n", Starved);
    f(S, "    goto L%d;\n  }\n", Op.Jmp1);
    jumpTo(Op.Jmp0, Pc);
    break;
  case LirOpc::Copy:
    copyWords(la(Op.Dst), la(Op.A), len(Op.Dst));
    break;
  case LirOpc::Var:
    // The var's memory cell is a fixed word range; executing the op
    // (re)initialises it from the init value.
    copyWords(la(Op.Imm), la(Op.A), len(Op.A));
    break;
  case LirOpc::Ld:
    copyWords(la(Op.Dst), la(Op.Imm), len(Op.Dst));
    break;
  case LirOpc::St:
    copyWords(la(Op.Imm), la(Op.B), len(Op.B));
    break;
  case LirOpc::Call:
    emitCall(Pc, Op);
    break;
  case LirOpc::Ret:
    if (Op.A >= 0)
      f(S, "  return %s;\n", sl(Op.A).c_str());
    else
      S += "  return 0;\n";
    break;
  default:
    break; // Unreachable: planning rejected everything else.
  }
}

void Emitter::emitCall(uint32_t Pc, const LirOp &Op) {
  const int32_t *Ops = L.OperandPool.data() + Op.OpsBase;
  if (Op.Callee->isIntrinsic()) {
    const CallPlan &C = P.Calls[CallI];
    assert(C.Pc == Pc);
    size_t Site = P.CallBase + CallI;
    if (C.K == IntrinsicKind::Assert)
      f(S, "  api->call(ctx, %zuu, s + %d, 1);\n", Site, la(Ops[0]));
    else
      f(S, "  api->call(ctx, %zuu, 0, 0);\n", Site);
    ++CallI;
    return;
  }
  const LirUnit *CL = L.callee(Op.Callee);
  auto FP = std::find_if(Fns.begin(), Fns.end(),
                         [CL](const UnitPlan &F) { return F.L == CL; });
  assert(FP != Fns.end() && "callee was not planned");
  std::string Args = FP->NeedsApi ? "api, ctx" : "";
  for (uint32_t J = 0; J != Op.OpsCount; ++J)
    Args += (Args.empty() ? "" : ", ") + sl(Ops[J]);
  if (Op.Dst >= 0)
    f(S, "  %s = %s(%s);\n", sl(Op.Dst).c_str(), FP->Symbol.c_str(),
      Args.c_str());
  else
    f(S, "  %s(%s);\n", FP->Symbol.c_str(), Args.c_str());
}

/// The unit's ops in pc order, every jump target and resume point
/// labelled.
void Emitter::emitBody() {
  std::set<int32_t> Labels;
  for (const LirOp &Op : L.Ops) {
    LirOpc C = baseOpc(Op.C);
    if (C == LirOpc::Jmp || C == LirOpc::Wait)
      Labels.insert(Op.Jmp0);
    if (C == LirOpc::CondJmp) {
      Labels.insert(Op.Jmp0);
      Labels.insert(Op.Jmp1);
    }
  }
  for (uint32_t Pc = 0; Pc != L.Ops.size(); ++Pc) {
    if (Labels.count((int32_t)Pc))
      f(S, "L%d:;\n", Pc);
    emitOp(Pc, L.Ops[Pc]);
  }
}

/// Whether \p L jumps to itself or an earlier op: only then can it loop,
/// so only then does it declare the runaway-guard fuel.
bool hasBackwardJump(const LirUnit &L) {
  for (uint32_t Pc = 0; Pc != L.Ops.size(); ++Pc) {
    const LirOp &Op = L.Ops[Pc];
    LirOpc C = baseOpc(Op.C);
    if ((C == LirOpc::Jmp || C == LirOpc::CondJmp) &&
        Op.Jmp0 <= (int32_t)Pc)
      return true;
    if (C == LirOpc::CondJmp && Op.Jmp1 <= (int32_t)Pc)
      return true;
  }
  return false;
}

/// Whether the emitted body of \p L ends in a return or a goto, so
/// control cannot fall off its end.
bool endsInJump(const LirUnit &L) {
  if (L.Ops.empty())
    return false;
  switch (baseOpc(L.Ops.back().C)) {
  case LirOpc::Halt:
  case LirOpc::Wait:
  case LirOpc::Jmp:
  case LirOpc::CondJmp:
  case LirOpc::Ret:
    return true;
  default:
    return false;
  }
}

/// One callee as a static function over a local word file (its own
/// LIR layout): constants are set and arguments stored in its prologue,
/// and when it can loop it keeps its own runaway-guard fuel per call. It
/// returns its result in a u64 (0 for void, and when the guard trips).
/// The array is not zeroed: the LIR is in SSA form, so every word is
/// written before any op reads it.
std::string emitFn(UnitPlan &FP, const std::vector<UnitPlan> &Fns) {
  const LirUnit &L = *FP.L;
  std::string S;
  f(S, "\n// @%s (function): %u lir ops, %u words\n", L.U->name().c_str(),
    (unsigned)L.Ops.size(), L.NumWords);
  std::string Params = FP.NeedsApi ? "const LlhdJitApi *api, void *ctx" : "";
  for (unsigned I = 0; I != L.U->inputs().size(); ++I)
    Params += (Params.empty() ? "u64 a" : ", u64 a") + std::to_string(I);
  f(S, "static u64 %s(%s) {\n", FP.Symbol.c_str(), Params.c_str());
  if (L.NumWords)
    f(S, "  u64 s[%u];\n", L.NumWords);
  if (hasBackwardJump(L))
    f(S, "  u64 fuel = %lluull;\n", (unsigned long long)MaxBackwardJumps);
  for (const auto &[Word, V] : L.ConstWords)
    f(S, "  s[%u] = 0x%llxull;\n", Word, (unsigned long long)V);
  for (unsigned I = 0; I != L.U->inputs().size(); ++I)
    f(S, "  s[%u] = a%u;\n", L.U->input(I)->valueNumber(), I);
  Emitter E{FP, L, Fns, "0", std::move(S), {}};
  E.emitBody();
  E.S += endsInJump(L) ? "}\n" : "  return 0;\n}\n";
  return std::move(E.S);
}

} // namespace

std::string jit::emitUnit(UnitPlan &P, unsigned Index) {
  const LirUnit &L = *P.L;
  P.Symbol = "llhd_jit_u" + std::to_string(Index);

  // Callees first (P.Fns is in callee-before-caller order), each once.
  std::string S = UnitSentinel;
  for (size_t J = 0; J != P.Fns.size(); ++J) {
    P.Fns[J].Symbol = P.Symbol + "_f" + std::to_string(J);
    S += emitFn(P.Fns[J], P.Fns);
  }

  f(S, "\n// @%s: %u lir ops, %u words, %zu waits\n", L.U->name().c_str(),
    (unsigned)L.Ops.size(), L.NumWords, P.Waits.size());
  f(S, "extern \"C\" s64 %s(const LlhdJitApi *api, void *ctx, u64 *s, "
       "s64 entry) {\n",
    P.Symbol.c_str());
  if (hasBackwardJump(L))
    f(S, "  u64 fuel = %lluull;\n", (unsigned long long)MaxBackwardJumps);

  // Entry dispatch: 0 starts at pc 0, i resumes after wait i-1. For
  // the single-wait classes this folds to one compare; the general
  // class gets its state-machine switch.
  if (!P.Waits.empty()) {
    S += "  switch (entry) {\n";
    for (size_t I = 0; I != P.Waits.size(); ++I)
      f(S, "  case %zu: goto L%d;\n", I + 1,
        L.Ops[P.Waits[I].Pc].Jmp0);
    S += "  default: break;\n  }\n";
  }

  Emitter E{P, L, P.Fns, "-2", std::move(S), {}};
  E.emitBody();
  E.S += endsInJump(L) ? "}\n" : "  return -1;\n}\n";
  return std::move(E.S);
}
