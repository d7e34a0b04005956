//===- moore/Compiler.cpp - SystemVerilog to LLHD ------------------------------===//

#include "moore/Compiler.h"
#include "ir/IRBuilder.h"
#include "moore/Parser.h"

#include <map>
#include <optional>
#include <set>

using namespace llhd;
using namespace llhd::moore;

namespace {

/// Elaboration-time constant environment (parameters, genvars).
using ConstEnv = std::map<std::string, IntValue>;

/// Width info of a declared name.
struct NetInfo {
  unsigned Width = 1;      ///< Packed width.
  unsigned ArrayLen = 0;   ///< 0: scalar; else unpacked length.
  bool IsPort = false;
  bool IsOutput = false;
};

class Elaborator; // Forward.

//===----------------------------------------------------------------------===//
// Constant expression evaluation
//===----------------------------------------------------------------------===//

std::optional<IntValue> constEval(const Expr &E, const ConstEnv &Env) {
  switch (E.K) {
  case Expr::Kind::Number:
    return E.Num;
  case Expr::Kind::Ident: {
    auto It = Env.find(E.Name);
    if (It == Env.end())
      return std::nullopt;
    return It->second;
  }
  case Expr::Kind::Unary: {
    auto A = constEval(*E.Ops[0], Env);
    if (!A)
      return std::nullopt;
    if (E.Op == "~")
      return A->logicalNot();
    if (E.Op == "-")
      return A->neg();
    if (E.Op == "!")
      return IntValue(32, A->isZero());
    return std::nullopt;
  }
  case Expr::Kind::Binary: {
    auto A = constEval(*E.Ops[0], Env);
    auto B = constEval(*E.Ops[1], Env);
    if (!A || !B)
      return std::nullopt;
    unsigned W = std::max(A->width(), B->width());
    IntValue X = A->zextOrTrunc(W), Y = B->zextOrTrunc(W);
    const std::string &Op = E.Op;
    if (Op == "+") return X.add(Y);
    if (Op == "-") return X.sub(Y);
    if (Op == "*") return X.mul(Y);
    if (Op == "/") return X.udiv(Y);
    if (Op == "%") return X.urem(Y);
    if (Op == "<<") return X.shl(Y.zextToU64());
    if (Op == ">>") return X.lshr(Y.zextToU64());
    if (Op == "==") return IntValue(32, X.eq(Y));
    if (Op == "!=") return IntValue(32, !X.eq(Y));
    if (Op == "<") return IntValue(32, X.ult(Y));
    if (Op == "<=") return IntValue(32, X.ule(Y));
    if (Op == ">") return IntValue(32, X.ugt(Y));
    if (Op == ">=") return IntValue(32, X.uge(Y));
    if (Op == "&") return X.logicalAnd(Y);
    if (Op == "|") return X.logicalOr(Y);
    if (Op == "^") return X.logicalXor(Y);
    if (Op == "&&") return IntValue(32, !X.isZero() && !Y.isZero());
    if (Op == "||") return IntValue(32, !X.isZero() || !Y.isZero());
    return std::nullopt;
  }
  case Expr::Kind::Ternary: {
    auto C = constEval(*E.Ops[0], Env);
    if (!C)
      return std::nullopt;
    return constEval(C->isZero() ? *E.Ops[2] : *E.Ops[1], Env);
  }
  case Expr::Kind::Call: {
    // $clog2 is ubiquitous in parameterised designs.
    if (E.Name == "$clog2" && E.Ops.size() == 1) {
      auto A = constEval(*E.Ops[0], Env);
      if (!A)
        return std::nullopt;
      uint64_t V = A->zextToU64();
      unsigned R = 0;
      while ((1ull << R) < V)
        ++R;
      return IntValue(32, R);
    }
    return std::nullopt;
  }
  default:
    return std::nullopt;
  }
}

//===----------------------------------------------------------------------===//
// Elaborator: modules to units
//===----------------------------------------------------------------------===//

class Elaborator {
public:
  Elaborator(SourceFile &SF, Module &M) : SF(SF), M(M), Ctx(M.context()) {}

  CompileResult run(const std::string &Top) {
    const ModuleDecl *TopDecl = moduleByName(Top);
    if (!TopDecl) {
      return {false, "top module '" + Top + "' not found", ""};
    }
    std::string UnitName = elaborateModule(*TopDecl, {});
    if (!Err.empty())
      return {false, Err, ""};
    return {true, "", UnitName};
  }

private:
  friend class ProcCodegen;

  const ModuleDecl *moduleByName(const std::string &N) {
    for (auto &MD : SF.Modules)
      if (MD->Name == N)
        return MD.get();
    return nullptr;
  }

  bool error(unsigned Line, const std::string &Msg) {
    if (Err.empty())
      Err = "line " + std::to_string(Line) + ": " + Msg;
    return false;
  }

  /// Elaborates (or reuses) a module instance with the given parameter
  /// overrides; returns the LLHD unit name.
  std::string elaborateModule(const ModuleDecl &MD,
                              const std::map<std::string, IntValue> &Over);

  /// Generates one procedural block as a process unit and instantiates
  /// it in the current entity.
  bool genProcess(const ProcBlock &PB, const std::string &PName,
                  const ConstEnv &Params,
                  const std::map<std::string, NetInfo> &Nets,
                  const std::map<std::string, Unit *> &Funcs,
                  std::map<std::string, Value *> &SigOf, IRBuilder &EB);

  SourceFile &SF;
  Module &M;
  Context &Ctx;
  std::string Err;
  std::map<std::string, std::string> Cache; ///< mangled key -> unit name.
  unsigned ProcCounter = 0;
};

//===----------------------------------------------------------------------===//
// Expression and statement codegen
//===----------------------------------------------------------------------===//

/// Generates code for one procedural context (process body, function
/// body, or entity-level continuous assigns).
class ProcCodegen {
public:
  ProcCodegen(Elaborator &E, Unit *U, const ConstEnv &Params,
              const std::map<std::string, NetInfo> &Nets,
              const std::map<std::string, Unit *> &Funcs)
      : B(U->context()), E(E), U(U), Ctx(U->context()), Params(Params),
        Nets(Nets), Funcs(Funcs) {}

  IRBuilder B;

  /// Signal bindings: net name -> signal-typed Value (argument or sig).
  std::map<std::string, Value *> Signals;
  /// Local variable cells: name -> var instruction (pointer).
  std::map<std::string, Value *> Locals;
  /// Shadow cells for blocking-assigned signals (always_comb).
  std::map<std::string, Value *> Shadows;
  /// Function arguments (when generating a function body).
  std::map<std::string, Value *> FuncArgs;
  /// Function return slot.
  Value *RetSlot = nullptr;
  std::string FuncName;

  bool failed() const { return Failed; }

  bool error(unsigned Line, const std::string &Msg) {
    Failed = true;
    E.error(Line, Msg);
    return false;
  }

  unsigned widthOfValue(Value *V) { return V->type()->bitWidth(); }

  Value *adapt(Value *V, unsigned W) {
    unsigned Cur = widthOfValue(V);
    if (Cur == W)
      return V;
    if (Cur < W)
      return B.cast(Opcode::Zext, Ctx.intType(W), V);
    return B.cast(Opcode::Trunc, Ctx.intType(W), V);
  }

  Value *boolOf(Value *V) {
    if (V->type()->isBool())
      return V;
    return B.cmp(Opcode::Neq, V, zeroLike(V));
  }

  Value *zeroLike(Value *V) {
    return B.constInt(IntValue(widthOfValue(V), 0));
  }

  /// Zero value of an arbitrary int/array type (for shadow inits).
  Value *zeroValue(Type *Ty) {
    if (auto *IT = dyn_cast<IntType>(Ty))
      return B.constInt(IntValue(IT->width(), 0));
    auto *AT = cast<ArrayType>(Ty);
    std::vector<Value *> Elems(AT->length(), zeroValue(AT->element()));
    return B.arrayCreate(Elems);
  }

  /// Width of an identifier as declared.
  std::optional<NetInfo> infoOf(const std::string &Name) {
    auto It = Nets.find(Name);
    if (It == Nets.end())
      return std::nullopt;
    return It->second;
  }

  //===------------------------------------------------------------------===//
  // Reads
  //===------------------------------------------------------------------===//

  /// Current value of a named object (signal probe / shadow / local /
  /// parameter / function argument).
  Value *readName(const std::string &Name, unsigned Line) {
    if (Value *P = lookupLocalOrArg(Name))
      return P;
    auto SIt = Shadows.find(Name);
    if (SIt != Shadows.end())
      return B.ld(SIt->second);
    auto SigIt = Signals.find(Name);
    if (SigIt != Signals.end()) {
      ReadSignals.insert(Name);
      return B.prb(SigIt->second, Name + "_p");
    }
    auto PIt = Params.find(Name);
    if (PIt != Params.end())
      return B.constInt(PIt->second);
    error(Line, "use of unknown name '" + Name + "'");
    return B.constInt(IntValue(1, 0));
  }

  Value *lookupLocalOrArg(const std::string &Name) {
    auto LIt = Locals.find(Name);
    if (LIt != Locals.end())
      return B.ld(LIt->second);
    auto FIt = FuncArgs.find(Name);
    if (FIt != FuncArgs.end())
      return FIt->second;
    return nullptr;
  }

  //===------------------------------------------------------------------===//
  // Expressions
  //===------------------------------------------------------------------===//

  Value *genExpr(const Expr &Ex) {
    switch (Ex.K) {
    case Expr::Kind::Number:
      if (Ex.Op == "'1")
        return B.constInt(IntValue::allOnes(1)); // Widened by adapt.
      return B.constInt(Ex.Num);
    case Expr::Kind::Ident:
      // $random / $urandom are valid without parentheses.
      if (Ex.Name == "$random" || Ex.Name == "$urandom")
        return B.call(RandomFn(), {});
      return readName(Ex.Name, Ex.Line);
    case Expr::Kind::Unary: {
      if (Ex.Op == "&" || Ex.Op == "|" || Ex.Op == "^")
        return genReduction(Ex);
      Value *A = genExpr(*Ex.Ops[0]);
      if (Ex.Op == "~")
        return B.bitNot(A);
      if (Ex.Op == "-")
        return B.neg(A);
      if (Ex.Op == "!")
        return B.cmp(Opcode::Eq, A, zeroLike(A));
      error(Ex.Line, "unsupported unary operator " + Ex.Op);
      return A;
    }
    case Expr::Kind::Binary:
      return genBinary(Ex);
    case Expr::Kind::Ternary: {
      Value *C = boolOf(genExpr(*Ex.Ops[0]));
      Value *T = genExpr(*Ex.Ops[1]);
      Value *F = genExpr(*Ex.Ops[2]);
      unsigned W = std::max(widthOfValue(T), widthOfValue(F));
      T = adapt(T, W);
      F = adapt(F, W);
      return B.mux(B.arrayCreate({F, T}), C);
    }
    case Expr::Kind::Index:
      return genIndexRead(Ex);
    case Expr::Kind::Slice:
      return genSliceRead(Ex);
    case Expr::Kind::Concat: {
      // First operand is the most significant.
      unsigned Total = 0;
      std::vector<Value *> Parts;
      for (const ExprPtr &Op : Ex.Ops) {
        Parts.push_back(genExpr(*Op));
        Total += widthOfValue(Parts.back());
      }
      Value *Acc = B.constInt(IntValue(Total, 0));
      unsigned Shift = Total;
      for (Value *P : Parts) {
        unsigned W = widthOfValue(P);
        Shift -= W;
        Value *Wide = adapt(P, Total);
        Value *Sh = B.shift(Opcode::Shl, Wide,
                            B.constInt(IntValue(32, Shift)));
        Acc = B.bitOr(Acc, Sh);
      }
      return Acc;
    }
    case Expr::Kind::Repl: {
      auto N = constEval(*Ex.Ops[0], Params);
      if (!N) {
        error(Ex.Line, "replication count must be constant");
        return B.constInt(IntValue(1, 0));
      }
      Value *V = genExpr(*Ex.Ops[1]);
      unsigned W = widthOfValue(V);
      unsigned Count = N->zextToU64();
      unsigned Total = std::max(1u, W * Count);
      Value *Acc = B.constInt(IntValue(Total, 0));
      for (unsigned I = 0; I != Count; ++I) {
        Value *Sh = B.shift(Opcode::Shl, adapt(V, Total),
                            B.constInt(IntValue(32, I * W)));
        Acc = B.bitOr(Acc, Sh);
      }
      return Acc;
    }
    case Expr::Kind::Call: {
      if (Ex.Name == "$random" || Ex.Name == "$urandom")
        return B.call(RandomFn(), {});
      if (Ex.Name == "$test$plusargs" || Ex.Name == "$plusarg$value")
        return genPlusargs(Ex);
      auto FIt = Funcs.find(Ex.Name);
      if (FIt == Funcs.end()) {
        error(Ex.Line, "call of unknown function '" + Ex.Name + "'");
        return B.constInt(IntValue(1, 0));
      }
      Unit *F = FIt->second;
      std::vector<Value *> Args;
      for (unsigned I = 0; I != Ex.Ops.size(); ++I) {
        Value *A = genExpr(*Ex.Ops[I]);
        if (I < F->inputs().size())
          A = adapt(A, F->input(I)->type()->bitWidth());
        Args.push_back(A);
      }
      return B.call(F, Args);
    }
    case Expr::Kind::Str:
      error(Ex.Line, "string literal outside a system-call argument");
      return B.constInt(IntValue(1, 0));
    }
    return B.constInt(IntValue(1, 0));
  }

  /// $test$plusargs("KEY") and $plusarg$value("KEY", default): the key
  /// is encoded into the intrinsic name (RtValue has no string kind);
  /// the engines decode it and answer from SimOptions::Plusargs.
  Value *genPlusargs(const Expr &Ex) {
    if (Ex.Ops.empty() || Ex.Ops[0]->K != Expr::Kind::Str) {
      error(Ex.Line, Ex.Name + " requires a string-literal key");
      return B.constInt(IntValue(1, 0));
    }
    const std::string &Key = Ex.Ops[0]->Name;
    if (Ex.Name == "$test$plusargs") {
      Unit *F = E.M.intrinsic("llhd.plusarg.test." + Key);
      F->setReturnType(Ctx.boolType());
      return B.call(F, {});
    }
    if (Ex.Ops.size() != 2) {
      error(Ex.Line, "$plusarg$value requires (\"KEY\", default)");
      return B.constInt(IntValue(32, 0));
    }
    Unit *F = E.M.intrinsic("llhd.plusarg.value." + Key);
    F->setReturnType(Ctx.intType(32));
    if (F->inputs().empty())
      F->addInput(Ctx.intType(32), "default");
    return B.call(F, {adapt(genExpr(*Ex.Ops[1]), 32)});
  }

  Value *genReduction(const Expr &Ex) {
    Value *A = genExpr(*Ex.Ops[0]);
    unsigned W = widthOfValue(A);
    if (Ex.Op == "&")
      return B.cmp(Opcode::Eq, A, B.constInt(IntValue::allOnes(W)));
    if (Ex.Op == "|")
      return B.cmp(Opcode::Neq, A, zeroLike(A));
    // ^: parity via a xor chain over the bits.
    Value *Acc = B.exts(A, 0, 1);
    for (unsigned I = 1; I != W; ++I)
      Acc = B.bitXor(Acc, B.exts(A, I, 1));
    return Acc;
  }

  Value *genBinary(const Expr &Ex) {
    const std::string &Op = Ex.Op;
    if (Op == "&&" || Op == "||") {
      Value *L = boolOf(genExpr(*Ex.Ops[0]));
      Value *R = boolOf(genExpr(*Ex.Ops[1]));
      return Op == "&&" ? B.bitAnd(L, R) : B.bitOr(L, R);
    }
    Value *L = genExpr(*Ex.Ops[0]);
    Value *R = genExpr(*Ex.Ops[1]);
    if (Op == "<<" || Op == ">>" || Op == ">>>") {
      Opcode O = Op == "<<" ? Opcode::Shl
                            : (Op == ">>" ? Opcode::Shr : Opcode::Ashr);
      return B.shift(O, L, R);
    }
    unsigned W = std::max(widthOfValue(L), widthOfValue(R));
    L = adapt(L, W);
    R = adapt(R, W);
    if (Op == "+") return B.add(L, R);
    if (Op == "-") return B.sub(L, R);
    if (Op == "*") return B.mul(L, R);
    if (Op == "/") return B.udiv(L, R);
    if (Op == "%") return B.binary(Opcode::Urem, L, R);
    if (Op == "&") return B.bitAnd(L, R);
    if (Op == "|") return B.bitOr(L, R);
    if (Op == "^") return B.bitXor(L, R);
    if (Op == "==") return B.cmp(Opcode::Eq, L, R);
    if (Op == "!=") return B.cmp(Opcode::Neq, L, R);
    if (Op == "<") return B.cmp(Opcode::Ult, L, R);
    if (Op == "<=") return B.cmp(Opcode::Ule, L, R);
    if (Op == ">") return B.cmp(Opcode::Ugt, L, R);
    if (Op == ">=") return B.cmp(Opcode::Uge, L, R);
    error(Ex.Line, "unsupported binary operator " + Op);
    return L;
  }

  Value *genIndexRead(const Expr &Ex) {
    Value *Base = readName(Ex.Name, Ex.Line);
    auto Idx = constEval(*Ex.Ops[0], Params);
    if (Base->type()->isArray()) {
      if (Idx)
        return B.extf(Base, Idx->zextToU64());
      Value *I = genExpr(*Ex.Ops[0]);
      return B.mux(Base, I);
    }
    // Bit select on an integer.
    if (Idx)
      return B.exts(Base, Idx->zextToU64(), 1);
    Value *I = genExpr(*Ex.Ops[0]);
    Value *Sh = B.shift(Opcode::Shr, Base, I);
    return B.cast(Opcode::Trunc, Ctx.boolType(), Sh);
  }

  Value *genSliceRead(const Expr &Ex) {
    Value *Base = readName(Ex.Name, Ex.Line);
    if (Ex.Op == "+:") {
      auto W = constEval(*Ex.Ops[1], Params);
      if (!W) {
        error(Ex.Line, "indexed part-select width must be constant");
        return Base;
      }
      auto Off = constEval(*Ex.Ops[0], Params);
      if (Off)
        return B.exts(Base, Off->zextToU64(), W->zextToU64());
      Value *O = genExpr(*Ex.Ops[0]);
      Value *Sh = B.shift(Opcode::Shr, Base, O);
      return B.cast(Opcode::Trunc, Ctx.intType(W->zextToU64()), Sh);
    }
    auto Msb = constEval(*Ex.Ops[0], Params);
    auto Lsb = constEval(*Ex.Ops[1], Params);
    if (!Msb || !Lsb) {
      error(Ex.Line, "slice bounds must be constant");
      return Base;
    }
    unsigned M = Msb->zextToU64(), L = Lsb->zextToU64();
    return B.exts(Base, L, M - L + 1);
  }

  //===------------------------------------------------------------------===//
  // Assignments
  //===------------------------------------------------------------------===//

  /// Emits "wait for <delay>" into a fresh continuation block.
  void suspendFor(const ExprPtr &D) {
    BasicBlock *Next = U->createBlock("after.bdelay");
    B.wait(Next, {}, delayOf(D));
    B.setInsertPoint(Next);
  }

  Value *defaultDelay() {
    // A fresh constant per use: a cached one could end up referenced
    // from blocks its defining block does not dominate.
    return B.constTime(Time());
  }

  Value *delayOf(const ExprPtr &D) {
    if (!D)
      return defaultDelay();
    return B.constTime(Time(D->Num.zextToU64()));
  }

  /// Assigns \p Val to the lvalue \p Lhs.
  void genAssign(const Expr &Lhs, Value *Val, bool NonBlocking,
                 const ExprPtr &Delay, unsigned Line) {
    switch (Lhs.K) {
    case Expr::Kind::Ident:
      genAssignWhole(Lhs.Name, Val, NonBlocking, Delay, Line);
      return;
    case Expr::Kind::Index:
    case Expr::Kind::Slice:
      genAssignPart(Lhs, Val, NonBlocking, Delay, Line);
      return;
    default:
      error(Line, "unsupported assignment target");
    }
  }

  void genAssignWhole(const std::string &Name, Value *Val,
                      bool NonBlocking, const ExprPtr &Delay,
                      unsigned Line) {
    if (Value *LocalCell = localCell(Name)) {
      Val = adaptTo(Val, pointeeOf(LocalCell));
      B.st(LocalCell, Val);
      return;
    }
    auto ShIt = Shadows.find(Name);
    if (ShIt != Shadows.end() && !NonBlocking) {
      // Blocking signal write: "x = #t v" evaluates v, suspends for t,
      // then assigns; the shadow makes the value readable immediately
      // afterwards, and a delta drive updates the signal itself.
      if (Delay)
        suspendFor(Delay);
      Val = adaptTo(Val, pointeeOf(ShIt->second));
      B.st(ShIt->second, Val);
      ShadowDirty.insert(Name);
      auto SIt2 = Signals.find(Name);
      if (SIt2 != Signals.end()) {
        WrittenSignals.insert(Name);
        B.drv(SIt2->second, Val, defaultDelay());
      }
      return;
    }
    auto SigIt = Signals.find(Name);
    if (SigIt == Signals.end()) {
      if (FuncName == Name && RetSlot) {
        B.st(RetSlot, adaptTo(Val, pointeeOf(RetSlot)));
        return;
      }
      error(Line, "assignment to unknown name '" + Name + "'");
      return;
    }
    WrittenSignals.insert(Name);
    Type *Inner = cast<SignalType>(SigIt->second->type())->inner();
    Val = adaptTo(Val, Inner);
    B.drv(SigIt->second, Val, delayOf(Delay));
  }

  void genAssignPart(const Expr &Lhs, Value *Val, bool NonBlocking,
                     const ExprPtr &Delay, unsigned Line) {
    const std::string &Name = Lhs.Name;
    bool IsSlice = Lhs.K == Expr::Kind::Slice;

    // Local variable or shadow: read-modify-write the cell.
    Value *Cell = localCell(Name);
    bool IsShadow = false;
    if (!Cell) {
      auto ShIt = Shadows.find(Name);
      if (ShIt != Shadows.end() && !NonBlocking) {
        Cell = ShIt->second;
        IsShadow = true;
      }
    }
    if (Cell) {
      if (IsShadow && Delay)
        suspendFor(Delay);
      Value *Old = B.ld(Cell);
      Value *New = insertIntoValue(Old, Lhs, Val, Line);
      B.st(Cell, New);
      if (IsShadow) {
        ShadowDirty.insert(Name);
        auto SIt2 = Signals.find(Name);
        if (SIt2 != Signals.end()) {
          WrittenSignals.insert(Name);
          B.drv(SIt2->second, New, defaultDelay());
        }
      }
      return;
    }

    auto SigIt = Signals.find(Name);
    if (SigIt == Signals.end()) {
      error(Line, "assignment to unknown name '" + Name + "'");
      return;
    }
    WrittenSignals.insert(Name);
    Value *Sig = SigIt->second;
    Type *Inner = cast<SignalType>(Sig->type())->inner();

    // Constant part select: drive the sub-signal directly.
    if (IsSlice) {
      auto Msb = constEval(*Lhs.Ops[0], Params);
      auto Lsb = constEval(*Lhs.Ops[1], Params);
      if (Msb && Lsb && Lhs.Op != "+:") {
        unsigned L = Lsb->zextToU64(), W = Msb->zextToU64() - L + 1;
        Value *Sub = B.exts(Sig, L, W);
        B.drv(Sub, adapt(Val, W), delayOf(Delay));
        return;
      }
    } else {
      auto Idx = constEval(*Lhs.Ops[0], Params);
      if (Idx) {
        if (Inner->isArray()) {
          Value *Sub = B.extf(Sig, Idx->zextToU64());
          Type *ElemTy = cast<ArrayType>(Inner)->element();
          B.drv(Sub, adaptTo(Val, ElemTy), delayOf(Delay));
        } else {
          Value *Sub = B.exts(Sig, Idx->zextToU64(), 1);
          B.drv(Sub, adapt(Val, 1), delayOf(Delay));
        }
        return;
      }
    }

    // Dynamic index: read-modify-write the whole signal.
    ReadSignals.insert(Name);
    Value *Old = B.prb(Sig);
    Value *New = insertIntoValue(Old, Lhs, Val, Line);
    B.drv(Sig, New, delayOf(Delay));
  }

  /// Value-level insert of \p Val into \p Old at the position named by
  /// the index/slice expression \p Lhs.
  Value *insertIntoValue(Value *Old, const Expr &Lhs, Value *Val,
                         unsigned Line) {
    if (Lhs.K == Expr::Kind::Slice) {
      if (Lhs.Op == "+:") {
        // Indexed part select x[base +: W]. The width is constant by
        // the language rules; the base may be dynamic.
        auto Wc = constEval(*Lhs.Ops[1], Params);
        if (!Wc) {
          error(Line, "indexed part-select width must be constant");
          return Old;
        }
        unsigned FullW = widthOfValue(Old);
        unsigned W = Wc->zextToU64();
        if (W > FullW)
          W = FullW;
        auto Off = constEval(*Lhs.Ops[0], Params);
        if (Off)
          return B.inss(Old, adapt(Val, W), Off->zextToU64());
        // Dynamic base: shift/mask read-modify-write on the packed
        // vector — (old & ~(ones<<i)) | ((val zext)<<i).
        Value *I = adapt(genExpr(*Lhs.Ops[0]), FullW);
        Value *Ones = adapt(B.constInt(IntValue::allOnes(W)), FullW);
        Value *Mask = B.bitNot(B.shift(Opcode::Shl, Ones, I));
        Value *Bits = B.shift(Opcode::Shl, adapt(adapt(Val, W), FullW), I);
        return B.bitOr(B.bitAnd(Old, Mask), Bits);
      }
      auto Msb = constEval(*Lhs.Ops[0], Params);
      auto Lsb = constEval(*Lhs.Ops[1], Params);
      if (!Msb || !Lsb) {
        error(Line, "dynamic [msb:lsb] slice assignment is unsupported "
                    "(use an indexed part select x[base +: width])");
        return Old;
      }
      unsigned L = Lsb->zextToU64(), W = Msb->zextToU64() - L + 1;
      return B.inss(Old, adapt(Val, W), L);
    }
    auto Idx = constEval(*Lhs.Ops[0], Params);
    if (Old->type()->isArray()) {
      auto *AT = cast<ArrayType>(Old->type());
      Value *ElemVal = adaptTo(Val, AT->element());
      if (Idx)
        return B.insf(Old, ElemVal, Idx->zextToU64());
      // Dynamic element write: rebuild the array with per-element muxes.
      Value *I = genExpr(*Lhs.Ops[0]);
      std::vector<Value *> Elems;
      for (unsigned K = 0; K != AT->length(); ++K) {
        Value *OldElem = B.extf(Old, K);
        Value *IsK = B.cmp(Opcode::Eq, adapt(I, 32),
                           B.constInt(IntValue(32, K)));
        Elems.push_back(B.mux(B.arrayCreate({OldElem, ElemVal}), IsK));
      }
      return B.arrayCreate(Elems);
    }
    // Dynamic bit write on an integer: (x & ~(1<<i)) | (bit<<i).
    if (Idx)
      return B.inss(Old, adapt(Val, 1), Idx->zextToU64());
    unsigned W = widthOfValue(Old);
    Value *I = genExpr(*Lhs.Ops[0]);
    Value *One = B.constInt(IntValue(W, 1));
    Value *Mask = B.bitNot(B.shift(Opcode::Shl, One, I));
    Value *Bit = B.shift(Opcode::Shl, adapt(Val, W), I);
    return B.bitOr(B.bitAnd(Old, Mask), Bit);
  }

  Type *pointeeOf(Value *Cell) {
    return cast<PointerType>(Cell->type())->pointee();
  }

  Value *adaptTo(Value *Val, Type *Ty) {
    if (Val->type() == Ty)
      return Val;
    if (Ty->isInt())
      return adapt(Val, cast<IntType>(Ty)->width());
    return Val; // Arrays must already match.
  }

  Value *localCell(const std::string &Name) {
    auto It = Locals.find(Name);
    return It == Locals.end() ? nullptr : It->second;
  }

  //===------------------------------------------------------------------===//
  // Statements
  //===------------------------------------------------------------------===//

  /// Generates \p S; returns false if the statement diverges (halt).
  bool genStmt(const Stmt &S) {
    if (Failed)
      return true;
    switch (S.K) {
    case Stmt::Kind::Block:
      for (const StmtPtr &Sub : S.Stmts)
        if (!genStmt(*Sub))
          return false;
      return true;
    case Stmt::Kind::VarDecl: {
      unsigned W = 32;
      if (S.WidthMsb) {
        auto Msb = constEval(*S.WidthMsb, Params);
        auto Lsb = constEval(*S.WidthLsb, Params);
        if (!Msb || !Lsb)
          return error(S.Line, "variable bounds must be constant"), true;
        W = Msb->zextToU64() - Lsb->zextToU64() + 1;
      }
      Value *Init;
      if (S.UnpackedLo) {
        auto Lo = constEval(*S.UnpackedLo, Params);
        auto Hi = constEval(*S.UnpackedHi, Params);
        if (!Lo || !Hi)
          return error(S.Line, "unpacked bounds must be constant"), true;
        uint64_t A = Lo->zextToU64(), Bv = Hi->zextToU64();
        unsigned Len = (A < Bv ? Bv - A : A - Bv) + 1;
        Init = zeroValue(Ctx.arrayType(Len, Ctx.intType(W)));
      } else {
        Init = S.Init ? adapt(genExpr(*S.Init), W)
                      : B.constInt(IntValue(W, 0));
      }
      Locals[S.Name] = B.var(Init, S.Name);
      return true;
    }
    case Stmt::Kind::Assign: {
      Value *Val = genExpr(*S.Rhs);
      genAssign(*S.Lhs, Val, S.NonBlocking, S.Delay, S.Line);
      return true;
    }
    case Stmt::Kind::If: {
      Value *C = boolOf(genExpr(*S.Cond));
      BasicBlock *ThenBB = U->createBlock("if.then");
      BasicBlock *ElseBB = S.Else ? U->createBlock("if.else") : nullptr;
      BasicBlock *JoinBB = U->createBlock("if.join");
      B.condBr(C, S.Else ? ElseBB : JoinBB, ThenBB);
      B.setInsertPoint(ThenBB);
      bool ThenLive = genStmt(*S.Then);
      if (ThenLive)
        B.br(JoinBB);
      bool ElseLive = true;
      if (S.Else) {
        B.setInsertPoint(ElseBB);
        ElseLive = genStmt(*S.Else);
        if (ElseLive)
          B.br(JoinBB);
      }
      B.setInsertPoint(JoinBB);
      if (!ThenLive && !ElseLive)
        return false;
      return true;
    }
    case Stmt::Kind::Case: {
      Value *C = genExpr(*S.Cond);
      BasicBlock *JoinBB = U->createBlock("case.join");
      const Stmt::CaseItem *Default = nullptr;
      std::vector<std::pair<Value *, const Stmt *>> Arms;
      for (const auto &Item : S.Items) {
        if (Item.Labels.empty()) {
          Default = &Item;
          continue;
        }
        Value *Match = nullptr;
        for (const ExprPtr &L : Item.Labels) {
          Value *LV = adapt(genExpr(*L), widthOfValue(C));
          Value *Eq = B.cmp(Opcode::Eq, C, LV);
          Match = Match ? B.bitOr(Match, Eq) : Eq;
        }
        Arms.push_back({Match, Item.Body.get()});
      }
      for (auto &[Match, Body] : Arms) {
        BasicBlock *ArmBB = U->createBlock("case.arm");
        BasicBlock *NextBB = U->createBlock("case.next");
        B.condBr(Match, NextBB, ArmBB);
        B.setInsertPoint(ArmBB);
        if (genStmt(*Body))
          B.br(JoinBB);
        B.setInsertPoint(NextBB);
      }
      if (Default) {
        if (genStmt(*Default->Body))
          B.br(JoinBB);
      } else {
        B.br(JoinBB);
      }
      B.setInsertPoint(JoinBB);
      return true;
    }
    case Stmt::Kind::For:
      return genFor(S);
    case Stmt::Kind::While:
    case Stmt::Kind::DoWhile: {
      BasicBlock *BodyBB = U->createBlock("loop.body");
      BasicBlock *CheckBB = U->createBlock("loop.check");
      BasicBlock *ExitBB = U->createBlock("loop.exit");
      B.br(S.K == Stmt::Kind::DoWhile ? BodyBB : CheckBB);
      B.setInsertPoint(BodyBB);
      BreakTargets.push_back(ExitBB);
      bool Live = genStmt(*S.Body);
      BreakTargets.pop_back();
      if (Live)
        B.br(CheckBB);
      B.setInsertPoint(CheckBB);
      Value *C = boolOf(genExpr(*S.Cond));
      B.condBr(C, ExitBB, BodyBB);
      B.setInsertPoint(ExitBB);
      return true;
    }
    case Stmt::Kind::Repeat: {
      auto N = constEval(*S.Cond, Params);
      if (N && N->zextToU64() <= 256) {
        for (uint64_t I = 0; I != N->zextToU64(); ++I)
          if (!genStmt(*S.Body))
            return false;
        return true;
      }
      // Runtime repeat: counter loop.
      Value *Cnt = B.var(B.constInt(IntValue(32, 0)), "repeat_i");
      Value *Limit = adapt(genExpr(*S.Cond), 32);
      BasicBlock *CheckBB = U->createBlock("repeat.check");
      BasicBlock *BodyBB = U->createBlock("repeat.body");
      BasicBlock *ExitBB = U->createBlock("repeat.exit");
      B.br(CheckBB);
      B.setInsertPoint(CheckBB);
      Value *C = B.cmp(Opcode::Ult, B.ld(Cnt), Limit);
      B.condBr(C, ExitBB, BodyBB);
      B.setInsertPoint(BodyBB);
      BreakTargets.push_back(ExitBB);
      bool Live = genStmt(*S.Body);
      BreakTargets.pop_back();
      if (Live) {
        B.st(Cnt, B.add(B.ld(Cnt), B.constInt(IntValue(32, 1))));
        B.br(CheckBB);
      }
      B.setInsertPoint(ExitBB);
      return true;
    }
    case Stmt::Kind::Forever: {
      BasicBlock *BodyBB = U->createBlock("forever.body");
      BasicBlock *ExitBB = U->createBlock("forever.exit");
      B.br(BodyBB);
      B.setInsertPoint(BodyBB);
      BreakTargets.push_back(ExitBB);
      bool Live = genStmt(*S.Body);
      BreakTargets.pop_back();
      if (Live)
        B.br(BodyBB);
      B.setInsertPoint(ExitBB);
      // Reachable only through break.
      return true;
    }
    case Stmt::Kind::Break: {
      if (BreakTargets.empty())
        return error(S.Line, "break outside of a loop"), true;
      B.br(BreakTargets.back());
      B.setInsertPoint(U->createBlock("after.break"));
      return false;
    }
    case Stmt::Kind::Delay: {
      // "#t;" — flush comb shadows would be wrong here; delays only
      // appear in testbench initial blocks.
      BasicBlock *NextBB = U->createBlock("after.delay");
      Value *T = B.constTime(Time(S.Cond->Num.zextToU64()));
      B.wait(NextBB, {}, T);
      B.setInsertPoint(NextBB);
      return true;
    }
    case Stmt::Kind::ExprStmt: {
      const Expr &C = *S.Rhs;
      if (C.Name == "assert") {
        Value *V = boolOf(genExpr(*C.Ops[0]));
        Unit *Assert = AssertFn();
        B.call(Assert, {V});
        return true;
      }
      if (C.Name == "$finish") {
        B.call(FinishFn(), {});
        return true;
      }
      if (C.Name == "$display")
        return true;
      genExpr(C); // User function called for effect.
      return true;
    }
    }
    return true;
  }

  bool genFor(const Stmt &S) {
    // Attempt compile-time unrolling (constant trip count).
    ConstEnv LoopEnv = Params;
    auto Init = constEval(*S.Init, Params);
    bool Unrolled = false;
    if (Init && S.Name == S.StepVar) {
      std::vector<IntValue> Trips;
      IntValue I = *Init;
      for (unsigned K = 0; K != 1024; ++K) {
        LoopEnv[S.Name] = I;
        auto C = constEval(*S.Cond, LoopEnv);
        if (!C) {
          Trips.clear();
          break;
        }
        if (C->isZero()) {
          Unrolled = true;
          break;
        }
        Trips.push_back(I);
        auto Next = constEval(*S.Step, LoopEnv);
        if (!Next) {
          Trips.clear();
          break;
        }
        I = *Next;
      }
      if (Unrolled) {
        // Materialise the induction variable as a local so the body can
        // read it; each copy stores the iteration constant.
        Value *Cell = B.var(B.constInt(Init->zextOrTrunc(32)), S.Name);
        Locals[S.Name] = Cell;
        for (const IntValue &T : Trips) {
          B.st(Cell, B.constInt(T.zextOrTrunc(32)));
          if (!genStmt(*S.Body))
            return false;
        }
        Locals.erase(S.Name);
        return true;
      }
    }

    // Runtime loop.
    Value *Cell = B.var(adapt(genExpr(*S.Init), 32), S.Name);
    Locals[S.Name] = Cell;
    BasicBlock *CheckBB = U->createBlock("for.check");
    BasicBlock *BodyBB = U->createBlock("for.body");
    BasicBlock *ExitBB = U->createBlock("for.exit");
    B.br(CheckBB);
    B.setInsertPoint(CheckBB);
    Value *C = boolOf(genExpr(*S.Cond));
    B.condBr(C, ExitBB, BodyBB);
    B.setInsertPoint(BodyBB);
    BreakTargets.push_back(ExitBB);
    bool Live = genStmt(*S.Body);
    BreakTargets.pop_back();
    if (Live) {
      B.st(Cell, adapt(genExpr(*S.Step), 32));
      B.br(CheckBB);
    }
    B.setInsertPoint(ExitBB);
    Locals.erase(S.Name);
    return true;
  }

  Unit *AssertFn() {
    Unit *F = E.M.intrinsic("llhd.assert");
    if (F->inputs().empty())
      F->addInput(Ctx.boolType(), "cond");
    return F;
  }
  Unit *FinishFn() { return E.M.intrinsic("llhd.finish"); }
  Unit *RandomFn() {
    Unit *F = E.M.intrinsic("llhd.random");
    F->setReturnType(Ctx.intType(32));
    return F;
  }

  std::set<std::string> ReadSignals;
  std::set<std::string> WrittenSignals;
  std::set<std::string> ShadowDirty;

private:
  Elaborator &E;
  Unit *U;
  Context &Ctx;
  const ConstEnv &Params;
  const std::map<std::string, NetInfo> &Nets;
  const std::map<std::string, Unit *> &Funcs;
  std::vector<BasicBlock *> BreakTargets;
  bool Failed = false;
};

} // namespace

/// Erases the empty blocks codegen leaves behind a `break`: nothing
/// branches to them, and the verifier rejects an empty block.
static void eraseEmptyBlocks(Unit &U) {
  std::vector<BasicBlock *> Blocks = U.blocks();
  for (BasicBlock *BB : Blocks)
    if (BB->empty() && !BB->hasUses())
      U.eraseBlock(BB);
}

//===----------------------------------------------------------------------===//
// Read/write scanning
//===----------------------------------------------------------------------===//

/// Collects identifier names referenced by an expression.
static void collectIdents(const Expr &E, std::vector<std::string> &Out) {
  if (E.K == Expr::Kind::Ident || E.K == Expr::Kind::Index ||
      E.K == Expr::Kind::Slice)
    Out.push_back(E.Name);
  for (const ExprPtr &Op : E.Ops)
    collectIdents(*Op, Out);
}

/// Collects names read and written by a statement tree.
static void scanStmt(const Stmt &S, std::vector<std::string> &Reads,
                     std::vector<std::string> &Writes,
                     std::vector<std::string> &BlockingWrites) {
  switch (S.K) {
  case Stmt::Kind::Assign:
    collectIdents(*S.Rhs, Reads);
    Writes.push_back(S.Lhs->Name);
    if (!S.NonBlocking)
      BlockingWrites.push_back(S.Lhs->Name);
    if (S.Lhs->K != Expr::Kind::Ident) {
      Reads.push_back(S.Lhs->Name); // RMW paths read the old value.
      for (const ExprPtr &Op : S.Lhs->Ops)
        collectIdents(*Op, Reads);
    }
    break;
  case Stmt::Kind::VarDecl:
    if (S.Init)
      collectIdents(*S.Init, Reads);
    break;
  default:
    if (S.Cond && S.K != Stmt::Kind::Delay)
      collectIdents(*S.Cond, Reads);
    if (S.Init)
      collectIdents(*S.Init, Reads);
    if (S.Step)
      collectIdents(*S.Step, Reads);
    if (S.Rhs)
      collectIdents(*S.Rhs, Reads);
    break;
  }
  auto Recurse = [&](const StmtPtr &P) {
    if (P)
      scanStmt(*P, Reads, Writes, BlockingWrites);
  };
  Recurse(S.Then);
  Recurse(S.Else);
  Recurse(S.Body);
  for (const StmtPtr &Sub : S.Stmts)
    Recurse(Sub);
  for (const auto &Item : S.Items) {
    for (const ExprPtr &L : Item.Labels)
      collectIdents(*L, Reads);
    Recurse(Item.Body);
  }
}

//===----------------------------------------------------------------------===//
// Procedural blocks
//===----------------------------------------------------------------------===//

bool Elaborator::genProcess(const ProcBlock &PB, const std::string &PName,
                            const ConstEnv &Params,
                            const std::map<std::string, NetInfo> &Nets,
                            const std::map<std::string, Unit *> &Funcs,
                            std::map<std::string, Value *> &SigOf,
                            IRBuilder &EB) {
  // Determine the signal interface: written nets become outputs,
  // read-only nets inputs.
  std::vector<std::string> Reads, Writes, BlockingWrites;
  scanStmt(*PB.Body, Reads, Writes, BlockingWrites);
  for (const EdgeEvent &Ev : PB.Edges)
    Reads.push_back(Ev.Signal);
  std::set<std::string> WriteSet, ReadSet;
  for (const std::string &W : Writes)
    if (Nets.count(W))
      WriteSet.insert(W);
  for (const std::string &R : Reads)
    if (Nets.count(R) && !WriteSet.count(R))
      ReadSet.insert(R);

  Unit *P = M.createProcess(PName);
  ProcCodegen CG(*this, P, Params, Nets, Funcs);
  auto sigTypeOf = [&](const std::string &Name) -> Type * {
    const NetInfo &NI = Nets.at(Name);
    Type *Inner = Ctx.intType(NI.Width);
    if (NI.ArrayLen)
      Inner = Ctx.arrayType(NI.ArrayLen, Inner);
    return Ctx.signalType(Inner);
  };
  for (const std::string &R : ReadSet)
    CG.Signals[R] = P->addInput(sigTypeOf(R), R);
  for (const std::string &W : WriteSet)
    CG.Signals[W] = P->addOutput(sigTypeOf(W), W);

  BasicBlock *Entry = P->createBlock("entry");
  CG.B.setInsertPoint(Entry);

  // Blocking-written signals get a shadow cell so later reads within one
  // activation observe the written value (SystemVerilog variable
  // semantics). The signal itself is driven a delta later on every
  // blocking write, so shadow and signal stay in lock-step.
  for (const std::string &W : BlockingWrites) {
    if (!WriteSet.count(W) || CG.Shadows.count(W))
      continue;
    Type *Inner = cast<SignalType>(CG.Signals[W]->type())->inner();
    CG.Shadows[W] = CG.B.var(CG.zeroValue(Inner), W + "_sh");
  }

  switch (PB.Kind) {
  case ProcKind::Initial: {
    CG.genStmt(*PB.Body);
    CG.B.halt();
    break;
  }
  case ProcKind::Always: {
    // Plain `always` without sensitivity: an infinite loop; the body
    // must contain delays (clock generators).
    BasicBlock *Body = P->createBlock("body");
    CG.B.br(Body);
    CG.B.setInsertPoint(Body);
    if (CG.genStmt(*PB.Body))
      CG.B.br(Body);
    break;
  }
  case ProcKind::AlwaysComb:
  case ProcKind::AlwaysLatch: {
    BasicBlock *Body = P->createBlock("body");
    CG.B.br(Body);
    CG.B.setInsertPoint(Body);
    CG.genStmt(*PB.Body);
    std::vector<Value *> Observed;
    for (const std::string &R : ReadSet)
      Observed.push_back(CG.Signals[R]);
    CG.B.wait(Body, Observed);
    break;
  }
  case ProcKind::AlwaysFF: {
    // Sample the edge signals, wait, then detect the edges (the
    // canonical two-TR shape of Figure 5). The sample block IS the
    // process entry so that temporal region analysis sees exactly the
    // init/check structure the desequentialiser expects.
    BasicBlock *Sample = Entry;
    BasicBlock *Check = P->createBlock("check");
    BasicBlock *Body = P->createBlock("ffbody");
    std::vector<Value *> Olds;
    std::vector<Value *> EdgeSigs;
    for (const EdgeEvent &Ev : PB.Edges) {
      auto It = CG.Signals.find(Ev.Signal);
      if (It == CG.Signals.end())
        return error(PB.Line, "unknown edge signal '" + Ev.Signal + "'");
      EdgeSigs.push_back(It->second);
      Olds.push_back(CG.B.prb(It->second, Ev.Signal + "0"));
    }
    CG.B.wait(Check, EdgeSigs);
    CG.B.setInsertPoint(Check);
    Value *Trigger = nullptr;
    for (unsigned I = 0; I != PB.Edges.size(); ++I) {
      Value *New = CG.B.prb(EdgeSigs[I], PB.Edges[I].Signal + "1");
      Value *Old = Olds[I];
      Value *Edge;
      if (PB.Edges[I].Posedge)
        Edge = CG.B.bitAnd(CG.B.bitNot(Old), New);
      else
        Edge = CG.B.bitAnd(Old, CG.B.bitNot(New));
      Trigger = Trigger ? CG.B.bitOr(Trigger, Edge) : Edge;
    }
    CG.B.condBr(Trigger, Sample, Body);
    CG.B.setInsertPoint(Body);
    if (CG.genStmt(*PB.Body))
      CG.B.br(Sample);
    break;
  }
  }
  if (CG.failed())
    return false;
  eraseEmptyBlocks(*P);

  std::vector<Value *> Ins, Outs;
  for (Argument *A : P->inputs())
    Ins.push_back(SigOf[A->name()]);
  for (Argument *A : P->outputs())
    Outs.push_back(SigOf[A->name()]);
  EB.inst(P, Ins, Outs);
  return true;
}

//===----------------------------------------------------------------------===//
// Module elaboration
//===----------------------------------------------------------------------===//

std::string
Elaborator::elaborateModule(const ModuleDecl &MD,
                            const std::map<std::string, IntValue> &Over) {
  // Resolve parameters.
  ConstEnv Params;
  std::string Mangle = MD.Name;
  for (const Parameter &P : MD.Params) {
    auto OIt = Over.find(P.Name);
    if (OIt != Over.end() && !P.Local) {
      Params[P.Name] = OIt->second;
    } else {
      auto V = constEval(*P.Default, Params);
      if (!V) {
        error(P.Line, "parameter '" + P.Name + "' is not constant");
        return "";
      }
      Params[P.Name] = *V;
    }
    if (!P.Local)
      Mangle += "$" + Params[P.Name].toString();
  }
  auto CIt = Cache.find(Mangle);
  if (CIt != Cache.end())
    return CIt->second;

  // Pick a unique unit name: base name if free, else the mangled one.
  std::string UnitName = M.unitByName(MD.Name) ? Mangle : MD.Name;
  if (M.unitByName(UnitName)) {
    error(MD.Line, "duplicate unit name " + UnitName);
    return "";
  }
  Cache[Mangle] = UnitName;

  // Net table: ports + variables with widths.
  std::map<std::string, NetInfo> Nets;
  auto widthOfRange = [&](const Range &R, unsigned Line,
                          unsigned &W) -> bool {
    if (R.isScalar()) {
      W = 1;
      return true;
    }
    auto Msb = constEval(*R.Msb, Params);
    auto Lsb = constEval(*R.Lsb, Params);
    if (!Msb || !Lsb)
      return error(Line, "range bounds must be constant");
    W = Msb->zextToU64() - Lsb->zextToU64() + 1;
    return true;
  };
  for (const Port &P : MD.Ports) {
    NetInfo NI;
    if (!widthOfRange(P.Packed, P.Line, NI.Width))
      return "";
    NI.IsPort = true;
    NI.IsOutput = P.Direction == Port::Dir::Out;
    Nets[P.Name] = NI;
  }
  for (const Net &N : MD.Nets) {
    auto Existing = Nets.find(N.Name);
    if (Existing != Nets.end())
      continue; // Port re-declaration.
    NetInfo NI;
    if (!widthOfRange(N.Packed, N.Line, NI.Width))
      return "";
    if (N.UnpackedLo) {
      auto Lo = constEval(*N.UnpackedLo, Params);
      auto Hi = constEval(*N.UnpackedHi, Params);
      if (!Lo || !Hi) {
        error(N.Line, "unpacked bounds must be constant");
        return "";
      }
      uint64_t A = Lo->zextToU64(), Bv = Hi->zextToU64();
      NI.ArrayLen = (A < Bv ? Bv - A : A - Bv) + 1;
    }
    Nets[N.Name] = NI;
  }

  // Create the entity.
  Unit *Ent = M.createEntity(UnitName);
  std::map<std::string, Value *> SigOf;
  for (const Port &P : MD.Ports) {
    Type *Ty = Ctx.signalType(Ctx.intType(Nets[P.Name].Width));
    Argument *A = P.Direction == Port::Dir::In
                      ? Ent->addInput(Ty, P.Name)
                      : Ent->addOutput(Ty, P.Name);
    SigOf[P.Name] = A;
  }
  IRBuilder EB(Ent->entityBlock());
  for (const Net &N : MD.Nets) {
    if (SigOf.count(N.Name))
      continue;
    const NetInfo &NI = Nets[N.Name];
    Value *Init;
    if (NI.ArrayLen) {
      std::vector<Value *> Elems(NI.ArrayLen,
                                 EB.constInt(IntValue(NI.Width, 0)));
      Init = EB.arrayCreate(Elems);
    } else {
      Init = EB.constInt(IntValue(NI.Width, 0));
    }
    SigOf[N.Name] = EB.sig(Init, N.Name);
  }

  // Functions.
  std::map<std::string, Unit *> Funcs;
  for (const FunctionDecl &F : MD.Functions) {
    Unit *FU = M.createFunction(UnitName + "." + F.Name);
    unsigned RetW = 1;
    if (!F.RetPacked.isScalar()) {
      auto Msb = constEval(*F.RetPacked.Msb, Params);
      auto Lsb = constEval(*F.RetPacked.Lsb, Params);
      if (Msb && Lsb)
        RetW = Msb->zextToU64() - Lsb->zextToU64() + 1;
    }
    FU->setReturnType(Ctx.intType(RetW));
    for (const Port &A : F.Args) {
      unsigned W = 1;
      widthOfRange(A.Packed, A.Line, W);
      FU->addInput(Ctx.intType(W), A.Name);
    }
    Funcs[F.Name] = FU;

    ProcCodegen CG(*this, FU, Params, Nets, Funcs);
    BasicBlock *Entry = FU->createBlock("entry");
    CG.B.setInsertPoint(Entry);
    for (Argument *A : FU->inputs())
      CG.FuncArgs[A->name()] = A;
    CG.RetSlot = CG.B.var(CG.B.constInt(IntValue(RetW, 0)), F.Name);
    CG.FuncName = F.Name;
    for (const StmtPtr &S : F.Body)
      CG.genStmt(*S);
    CG.B.ret(CG.B.ld(CG.RetSlot));
    if (CG.failed())
      return "";
    eraseEmptyBlocks(*FU);
  }

  // Continuous assigns become one combinational process each.
  unsigned AssignIdx = 0;
  for (const ContAssign &A : MD.Assigns) {
    std::string PName = UnitName + ".assign" + std::to_string(AssignIdx++);
    Unit *P = M.createProcess(PName);
    ProcCodegen CG(*this, P, Params, Nets, Funcs);

    std::map<std::string, Value *> ArgOf;
    std::vector<std::string> InNames;
    collectIdents(*A.Rhs, InNames);
    if (A.Lhs->K != Expr::Kind::Ident)
      for (const ExprPtr &Op : A.Lhs->Ops)
        collectIdents(*Op, InNames);
    std::string OutName = A.Lhs->Name;
    auto sigTypeOf = [&](const std::string &Name) -> Type * {
      const NetInfo &NI = Nets.at(Name);
      Type *Inner = Ctx.intType(NI.Width);
      if (NI.ArrayLen)
        Inner = Ctx.arrayType(NI.ArrayLen, Inner);
      return Ctx.signalType(Inner);
    };
    for (const std::string &N : InNames) {
      if (!Nets.count(N) || ArgOf.count(N) || N == OutName)
        continue;
      ArgOf[N] = P->addInput(sigTypeOf(N), N);
    }
    if (!Nets.count(OutName)) {
      error(A.Line, "assign to unknown net '" + OutName + "'");
      return "";
    }
    ArgOf[OutName] = P->addOutput(sigTypeOf(OutName), OutName);
    CG.Signals = ArgOf;

    BasicBlock *Entry = P->createBlock("entry");
    CG.B.setInsertPoint(Entry);
    Value *Val = CG.genExpr(*A.Rhs);
    CG.genAssign(*A.Lhs, Val, /*NonBlocking=*/true, nullptr, A.Line);
    std::vector<Value *> Observed;
    for (auto &[N, V] : ArgOf)
      if (N != OutName)
        Observed.push_back(V);
    CG.B.wait(Entry, Observed);
    if (CG.failed())
      return "";

    std::vector<Value *> Ins, Outs;
    for (Argument *Arg : P->inputs())
      Ins.push_back(SigOf[Arg->name()]);
    for (Argument *Arg : P->outputs())
      Outs.push_back(SigOf[Arg->name()]);
    EB.inst(P, Ins, Outs);
  }

  // Procedural blocks.
  unsigned ProcIdx = 0;
  for (const ProcBlock &PB : MD.Procs) {
    std::string PName = UnitName + ".proc" + std::to_string(ProcIdx++);
    if (!genProcess(PB, PName, Params, Nets, Funcs, SigOf, EB))
      return "";
  }

  // Child instantiations.
  for (const Instantiation &I : MD.Insts) {
    const ModuleDecl *Child = moduleByName(I.ModuleName);
    if (!Child) {
      error(I.Line, "unknown module '" + I.ModuleName + "'");
      return "";
    }
    std::map<std::string, IntValue> ChildOver;
    for (const auto &[PN, PE] : I.ParamOverrides) {
      auto V = constEval(*PE, Params);
      if (!V) {
        error(I.Line, "parameter override must be constant");
        return "";
      }
      ChildOver[PN] = *V;
    }
    std::string ChildUnit = elaborateModule(*Child, ChildOver);
    if (ChildUnit.empty())
      return "";
    Unit *CU = M.unitByName(ChildUnit);

    std::map<std::string, std::string> Conn;
    for (const auto &[PN, PE] : I.Connections) {
      if (PE->K != Expr::Kind::Ident) {
        error(I.Line, "port connections must be plain nets");
        return "";
      }
      Conn[PN] = PE->Name;
    }
    auto connect = [&](Argument *A) -> Value * {
      std::string Net;
      auto CIt2 = Conn.find(A->name());
      if (CIt2 != Conn.end())
        Net = CIt2->second;
      else if (I.WildcardRest)
        Net = A->name();
      else {
        error(I.Line, "port '" + A->name() + "' not connected");
        return nullptr;
      }
      auto SIt = SigOf.find(Net);
      if (SIt == SigOf.end()) {
        error(I.Line, "connection to unknown net '" + Net + "'");
        return nullptr;
      }
      return SIt->second;
    };
    std::vector<Value *> Ins, Outs;
    for (Argument *A : CU->inputs()) {
      Value *V = connect(A);
      if (!V)
        return "";
      Ins.push_back(V);
    }
    for (Argument *A : CU->outputs()) {
      Value *V = connect(A);
      if (!V)
        return "";
      Outs.push_back(V);
    }
    EB.inst(CU, Ins, Outs);
  }

  return UnitName;
}


//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

CompileResult llhd::moore::compileSystemVerilog(const std::string &Src,
                                                const std::string &TopModule,
                                                Module &M) {
  SourceFile SF;
  std::string Error;
  if (!parseSource(Src, SF, Error))
    return {false, Error, ""};
  Elaborator E(SF, M);
  return E.run(TopModule);
}

std::string llhd::moore::detectTopModule(const std::string &Src,
                                         std::string &Error) {
  SourceFile SF;
  if (!parseSource(Src, SF, Error))
    return "";
  std::set<std::string> Instantiated;
  for (const auto &MD : SF.Modules)
    for (const Instantiation &I : MD->Insts)
      Instantiated.insert(I.ModuleName);
  std::vector<std::string> Tops;
  for (const auto &MD : SF.Modules)
    if (!Instantiated.count(MD->Name))
      Tops.push_back(MD->Name);
  if (Tops.size() == 1)
    return Tops.front();
  if (Tops.empty()) {
    Error = SF.Modules.empty()
                ? "no modules in source"
                : "no top module (every module is instantiated); "
                  "use --top=<module>";
  } else {
    Error = "multiple top candidates (use --top=<module>):";
    for (const std::string &T : Tops)
      Error += " " + T;
  }
  return "";
}
