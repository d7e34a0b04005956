//===- asm/Parser.cpp - Assembly parsing -----------------------------------===//

#include "asm/Parser.h"
#include "ir/IRBuilder.h"

#include <cctype>
#include <map>
#include <optional>
#include <set>

using namespace llhd;

namespace {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

enum class TokKind {
  Eof,
  Ident,     ///< bare word: const, i32, entry, 1ns (digits+letters), ...
  Number,    ///< pure digits, optionally negative
  GlobalName, ///< @foo
  LocalName, ///< %foo
  String,    ///< "01XZ"
  LParen, RParen, LBrace, RBrace, LBracket, RBracket,
  Comma, Equal, Colon, Star, Dollar, Arrow,
};

struct Token {
  TokKind Kind = TokKind::Eof;
  std::string Text;
  unsigned Line = 0;
};

class Lexer {
public:
  explicit Lexer(const std::string &Src) : Src(Src) {}

  Token next() {
    skipTrivia();
    Token T;
    T.Line = Line;
    if (Pos >= Src.size()) {
      T.Kind = TokKind::Eof;
      return T;
    }
    char C = Src[Pos];
    if (C == '@' || C == '%') {
      ++Pos;
      T.Kind = C == '@' ? TokKind::GlobalName : TokKind::LocalName;
      T.Text = lexWord();
      return T;
    }
    if (C == '"') {
      ++Pos;
      T.Kind = TokKind::String;
      while (Pos < Src.size() && Src[Pos] != '"')
        T.Text += Src[Pos++];
      if (Pos < Src.size())
        ++Pos;
      return T;
    }
    if (std::isdigit(static_cast<unsigned char>(C)) ||
        (C == '-' && Pos + 1 < Src.size() &&
         std::isdigit(static_cast<unsigned char>(Src[Pos + 1])))) {
      // Digits, possibly continuing into letters (time literals like 1ns,
      // hex like 0x1f). Classify as Number only if all digits.
      if (C == '-')
        T.Text += Src[Pos++];
      bool AllDigits = true;
      while (Pos < Src.size() &&
             (std::isalnum(static_cast<unsigned char>(Src[Pos])) ||
              Src[Pos] == '_')) {
        if (!std::isdigit(static_cast<unsigned char>(Src[Pos])))
          AllDigits = false;
        T.Text += Src[Pos++];
      }
      T.Kind = AllDigits ? TokKind::Number : TokKind::Ident;
      return T;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      T.Kind = TokKind::Ident;
      T.Text = lexWord();
      return T;
    }
    ++Pos;
    switch (C) {
    case '(': T.Kind = TokKind::LParen; return T;
    case ')': T.Kind = TokKind::RParen; return T;
    case '{': T.Kind = TokKind::LBrace; return T;
    case '}': T.Kind = TokKind::RBrace; return T;
    case '[': T.Kind = TokKind::LBracket; return T;
    case ']': T.Kind = TokKind::RBracket; return T;
    case ',': T.Kind = TokKind::Comma; return T;
    case '=': T.Kind = TokKind::Equal; return T;
    case ':': T.Kind = TokKind::Colon; return T;
    case '*': T.Kind = TokKind::Star; return T;
    case '$': T.Kind = TokKind::Dollar; return T;
    case '-':
      if (Pos < Src.size() && Src[Pos] == '>') {
        ++Pos;
        T.Kind = TokKind::Arrow;
        return T;
      }
      break;
    }
    T.Kind = TokKind::Eof;
    T.Text = std::string(1, C);
    Bad = true;
    return T;
  }

  bool sawBadChar() const { return Bad; }

private:
  void skipTrivia() {
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (C == '\n') {
        ++Line;
        ++Pos;
      } else if (std::isspace(static_cast<unsigned char>(C))) {
        ++Pos;
      } else if (C == ';') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
  }

  std::string lexWord() {
    std::string W;
    while (Pos < Src.size() &&
           (std::isalnum(static_cast<unsigned char>(Src[Pos])) ||
            Src[Pos] == '_' || Src[Pos] == '.')) {
      W += Src[Pos++];
    }
    return W;
  }

  const std::string &Src;
  size_t Pos = 0;
  unsigned Line = 1;
  bool Bad = false;
};

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

class Parser {
public:
  Parser(const std::string &Text, Module &M)
      : Lex(Text), M(M), Ctx(M.context()) {
    advance();
  }

  ParseResult run() {
    while (Tok.Kind != TokKind::Eof) {
      if (!parseUnit())
        return ParseResult::failure(ErrLine, ErrMsg);
    }
    return ParseResult::success();
  }

private:
  //===------------------------------------------------------------------===//
  // Token plumbing.
  //===------------------------------------------------------------------===//

  void advance() {
    if (HasPending) {
      Tok = Pending;
      HasPending = false;
      return;
    }
    Tok = Lex.next();
  }

  bool error(const std::string &Msg) {
    if (ErrMsg.empty()) {
      ErrMsg = Msg;
      ErrLine = Tok.Line;
    }
    return false;
  }

  /// Converts the decimal digits \p S into \p Out; false and a
  /// diagnostic naming \p What when S is not a plain number of at most
  /// \p Max.
  bool number(const std::string &S, uint64_t Max, const char *What,
              uint64_t &Out) {
    uint64_t V = 0;
    bool Ok = !S.empty();
    for (char C : S) {
      unsigned D = static_cast<unsigned>(C - '0');
      if (D > 9 || V > (Max - D) / 10) {
        Ok = false;
        break;
      }
      V = V * 10 + D;
    }
    if (!Ok)
      return error(std::string(What) + " '" + S + "' is out of range");
    Out = V;
    return true;
  }

  bool expect(TokKind K, const char *What) {
    if (Tok.Kind != K)
      return error(std::string("expected ") + What);
    advance();
    return true;
  }

  bool accept(TokKind K) {
    if (Tok.Kind != K)
      return false;
    advance();
    return true;
  }

  bool acceptIdent(const char *S) {
    if (Tok.Kind != TokKind::Ident || Tok.Text != S)
      return false;
    advance();
    return true;
  }

  //===------------------------------------------------------------------===//
  // Types.
  //===------------------------------------------------------------------===//

  Type *parseType() {
    Type *Base = parseBaseType();
    if (!Base)
      return nullptr;
    for (;;) {
      if (accept(TokKind::Star))
        Base = Ctx.pointerType(Base);
      else if (accept(TokKind::Dollar))
        Base = Ctx.signalType(Base);
      else
        break;
    }
    return Base;
  }

  Type *parseBaseType() {
    if (Tok.Kind == TokKind::Ident) {
      const std::string &S = Tok.Text;
      if (S == "void") {
        advance();
        return Ctx.voidType();
      }
      if (S == "time") {
        advance();
        return Ctx.timeType();
      }
      if (S.size() > 1 && (S[0] == 'i' || S[0] == 'n' || S[0] == 'l')) {
        bool AllDigits = true;
        for (size_t I = 1; I < S.size(); ++I)
          if (!std::isdigit(static_cast<unsigned char>(S[I])))
            AllDigits = false;
        if (AllDigits) {
          uint64_t N;
          if (!number(S.substr(1), UINT32_MAX, "type width", N))
            return nullptr;
          char C = S[0];
          advance();
          if (C == 'i')
            return Ctx.intType(N);
          if (C == 'n')
            return Ctx.enumType(N);
          return Ctx.logicType(N);
        }
      }
      error("unknown type '" + S + "'");
      return nullptr;
    }
    if (accept(TokKind::LBracket)) {
      if (Tok.Kind != TokKind::Number) {
        error("expected array length");
        return nullptr;
      }
      uint64_t Len;
      if (!number(Tok.Text, UINT32_MAX, "array length", Len))
        return nullptr;
      advance();
      if (!acceptIdent("x")) {
        error("expected 'x' in array type");
        return nullptr;
      }
      Type *Elem = parseType();
      if (!Elem || !expect(TokKind::RBracket, "']'"))
        return nullptr;
      return Ctx.arrayType(Len, Elem);
    }
    if (accept(TokKind::LBrace)) {
      std::vector<Type *> Fields;
      if (Tok.Kind != TokKind::RBrace) {
        do {
          Type *F = parseType();
          if (!F)
            return nullptr;
          Fields.push_back(F);
        } while (accept(TokKind::Comma));
      }
      if (!expect(TokKind::RBrace, "'}'"))
        return nullptr;
      return Ctx.structType(std::move(Fields));
    }
    error("expected type");
    return nullptr;
  }

  //===------------------------------------------------------------------===//
  // Units.
  //===------------------------------------------------------------------===//

  bool parseUnit() {
    bool Declare = acceptIdent("declare");
    Unit::Kind K;
    if (acceptIdent("func"))
      K = Unit::Kind::Function;
    else if (acceptIdent("proc"))
      K = Unit::Kind::Process;
    else if (acceptIdent("entity"))
      K = Unit::Kind::Entity;
    else
      return error("expected 'func', 'proc' or 'entity'");

    if (Tok.Kind != TokKind::GlobalName)
      return error("expected unit name");
    std::string Name = Tok.Text;
    advance();

    Unit *U = nullptr;
    bool Adopt = false;
    if (Unit *Existing = M.unitByName(Name)) {
      // Only units auto-declared from a forward `inst`/`call` reference
      // (or implicitly-known intrinsics) may be re-encountered.
      bool Redeclarable = AutoDecls.count(Existing) ||
                          (Existing->isIntrinsic() &&
                           Existing->isDeclaration() && Declare);
      if (!Redeclarable)
        return error("duplicate unit @" + Name);
      Existing->setKind(K);
      U = Existing;
      Adopt = true;
      if (!Declare) {
        U->setDeclaration(false);
        AutoDecls.erase(Existing);
      }
    } else {
      U = Declare ? M.declareUnit(K, Name)
                  : (K == Unit::Kind::Function  ? M.createFunction(Name)
                     : K == Unit::Kind::Process ? M.createProcess(Name)
                                                : M.createEntity(Name));
    }

    // Reset per-unit state.
    Values.clear();
    Blocks.clear();
    Placeholders.clear();

    if (!parseArgList(U, /*IsInput=*/true, Declare, Adopt))
      return false;
    if (K == Unit::Kind::Function) {
      Type *Ret = parseType();
      if (!Ret)
        return false;
      U->setReturnType(Ret);
    } else {
      if (!expect(TokKind::Arrow, "'->'"))
        return false;
      if (!parseArgList(U, /*IsInput=*/false, Declare, Adopt))
        return false;
    }
    if (Declare)
      return true;

    // Keep the module's unit order equal to textual definition order so
    // that print(parse(T)) is a fixpoint.
    M.moveUnitToEnd(U);

    if (!expect(TokKind::LBrace, "'{'"))
      return false;
    if (K == Unit::Kind::Entity) {
      Builder.setInsertPoint(U->entityBlock());
      while (Tok.Kind != TokKind::RBrace) {
        if (Tok.Kind == TokKind::Eof)
          return error("unexpected end of input in entity body");
        if (!parseInst(U))
          return false;
      }
    } else {
      // Blocks are introduced by "label:" lines.
      BasicBlock *Cur = nullptr;
      std::set<BasicBlock *> Defined;
      while (Tok.Kind != TokKind::RBrace) {
        if (Tok.Kind == TokKind::Eof)
          return error("unexpected end of input in unit body");
        if (Tok.Kind == TokKind::Ident || Tok.Kind == TokKind::Number) {
          // Could be a label or an instruction mnemonic; a label is
          // followed by ':'.
          std::string LabelOrOp = Tok.Text;
          // Peek: labels are only idents followed by colon.
          Token Save = Tok;
          advance();
          if (Tok.Kind == TokKind::Colon) {
            advance();
            BasicBlock *BB = getBlock(U, LabelOrOp);
            if (!Defined.insert(BB).second)
              return error("duplicate label '" + LabelOrOp + "'");
            // A forward `br`/`wait` created the block at its first
            // mention; keep the block order equal to textual label order
            // so that print(parse(T)) is a fixpoint.
            if (Cur)
              U->moveBlockAfter(BB, Cur);
            Cur = BB;
            Builder.setInsertPoint(Cur);
            continue;
          }
          // Not a label: un-read by re-dispatching with saved token.
          Pending = Tok;
          Tok = Save;
          HasPending = true;
        }
        if (!Cur)
          return error("instruction outside of a block");
        if (!parseInst(U))
          return false;
      }
    }
    advance(); // consume '}'
    return resolvePlaceholders();
  }

  bool parseArgList(Unit *U, bool IsInput, bool Declare, bool Adopt) {
    if (!expect(TokKind::LParen, "'('"))
      return false;
    unsigned Idx = 0;
    if (Tok.Kind != TokKind::RParen) {
      do {
        Type *Ty = parseType();
        if (!Ty)
          return false;
        std::string Name;
        if (!Declare) {
          if (Tok.Kind != TokKind::LocalName)
            return error("expected argument name");
          Name = Tok.Text;
          advance();
        }
        Argument *A;
        if (Adopt) {
          const auto &Args = IsInput ? U->inputs() : U->outputs();
          if (Idx >= Args.size() || Args[Idx]->type() != Ty)
            return error("definition of @" + U->name() +
                         " does not match forward reference");
          A = Args[Idx];
          A->setName(Name);
        } else {
          A = IsInput ? U->addInput(Ty, Name) : U->addOutput(Ty, Name);
        }
        ++Idx;
        if (!Name.empty())
          defineValue(Name, A);
      } while (accept(TokKind::Comma));
    }
    if (Adopt && Idx != (IsInput ? U->inputs() : U->outputs()).size())
      return error("definition of @" + U->name() +
                   " does not match forward reference");
    return expect(TokKind::RParen, "')'");
  }

  //===------------------------------------------------------------------===//
  // Value resolution.
  //===------------------------------------------------------------------===//

  void defineValue(const std::string &Name, Value *V) {
    auto It = Placeholders.find(Name);
    if (It != Placeholders.end()) {
      It->second->replaceAllUsesWith(V);
      delete It->second;
      Placeholders.erase(It);
    }
    Values[Name] = V;
  }

  /// Resolves %name; must already be defined.
  Value *getValue(const std::string &Name) {
    auto It = Values.find(Name);
    if (It != Values.end())
      return It->second;
    error("use of undefined value %" + Name);
    return nullptr;
  }

  /// Resolves %name, creating a typed placeholder if not yet defined
  /// (used for phi incoming values, which may be defined later).
  Value *getValueForward(const std::string &Name, Type *Ty) {
    auto It = Values.find(Name);
    if (It != Values.end())
      return It->second;
    auto PIt = Placeholders.find(Name);
    if (PIt != Placeholders.end())
      return PIt->second;
    auto *P = new Argument(Ty, Name, Argument::Dir::In, 0, nullptr);
    Placeholders[Name] = P;
    return P;
  }

  bool resolvePlaceholders() {
    if (Placeholders.empty())
      return true;
    std::string Name = Placeholders.begin()->first;
    for (auto &[N, P] : Placeholders) {
      P->replaceAllUsesWith(nullptr);
      delete P;
    }
    Placeholders.clear();
    return error("use of undefined value %" + Name);
  }

  BasicBlock *getBlock(Unit *U, const std::string &Name) {
    auto It = Blocks.find(Name);
    if (It != Blocks.end())
      return It->second;
    BasicBlock *BB = U->createBlock(Name);
    Blocks[Name] = BB;
    return BB;
  }

  /// Parses "%name" and resolves it (no forward references).
  Value *parseValueRef() {
    if (Tok.Kind != TokKind::LocalName) {
      error("expected value reference");
      return nullptr;
    }
    std::string Name = Tok.Text;
    advance();
    return getValue(Name);
  }

  /// Parses "%name" as a block reference.
  BasicBlock *parseBlockRef(Unit *U) {
    if (Tok.Kind != TokKind::LocalName) {
      error("expected block reference");
      return nullptr;
    }
    std::string Name = Tok.Text;
    advance();
    return getBlock(U, Name);
  }

  //===------------------------------------------------------------------===//
  // Instructions.
  //===------------------------------------------------------------------===//

  bool parseInst(Unit *U) {
    std::string ResultName;
    bool HasResult = false;
    if (Tok.Kind == TokKind::LocalName) {
      ResultName = Tok.Text;
      advance();
      if (!expect(TokKind::Equal, "'='"))
        return false;
      HasResult = true;
    }

    Instruction *I = nullptr;

    // Aggregate literals.
    if (Tok.Kind == TokKind::LBracket) {
      I = parseArrayLiteral();
    } else if (Tok.Kind == TokKind::LBrace) {
      I = parseStructLiteral();
    } else if (Tok.Kind == TokKind::Ident) {
      std::string Op = Tok.Text;
      advance();
      I = parseOp(U, Op);
    } else {
      return error("expected instruction");
    }
    if (!I)
      return false;
    if (HasResult) {
      if (I->type()->isVoid())
        return error("instruction has no result to bind");
      I->setName(ResultName);
      defineValue(ResultName, I);
    }
    return true;
  }

  Instruction *parseArrayLiteral() {
    advance(); // '['
    Type *ElemTy = parseType();
    if (!ElemTy)
      return nullptr;
    std::vector<Value *> Elems;
    do {
      Value *V = parseValueRef();
      if (!V)
        return nullptr;
      Elems.push_back(V);
    } while (accept(TokKind::Comma));
    if (!expect(TokKind::RBracket, "']'"))
      return nullptr;
    return Builder.arrayCreate(Elems);
  }

  Instruction *parseStructLiteral() {
    advance(); // '{'
    std::vector<Value *> Fields;
    do {
      if (!parseType())
        return nullptr;
      Value *V = parseValueRef();
      if (!V)
        return nullptr;
      Fields.push_back(V);
    } while (accept(TokKind::Comma));
    if (!expect(TokKind::RBrace, "'}'"))
      return nullptr;
    return Builder.structCreate(Fields);
  }

  std::optional<Opcode> opcodeByName(const std::string &S) {
    static const std::map<std::string, Opcode> Map = {
        {"const", Opcode::Const},   {"neg", Opcode::Neg},
        {"add", Opcode::Add},       {"sub", Opcode::Sub},
        {"mul", Opcode::Mul},       {"div", Opcode::Udiv},
        {"sdiv", Opcode::Sdiv},     {"mod", Opcode::Umod},
        {"smod", Opcode::Smod},     {"rem", Opcode::Urem},
        {"srem", Opcode::Srem},     {"not", Opcode::Not},
        {"and", Opcode::And},       {"or", Opcode::Or},
        {"xor", Opcode::Xor},       {"shl", Opcode::Shl},
        {"shr", Opcode::Shr},       {"ashr", Opcode::Ashr},
        {"eq", Opcode::Eq},         {"neq", Opcode::Neq},
        {"ult", Opcode::Ult},       {"ugt", Opcode::Ugt},
        {"ule", Opcode::Ule},       {"uge", Opcode::Uge},
        {"slt", Opcode::Slt},       {"sgt", Opcode::Sgt},
        {"sle", Opcode::Sle},       {"sge", Opcode::Sge},
        {"mux", Opcode::Mux},       {"zext", Opcode::Zext},
        {"sext", Opcode::Sext},     {"trunc", Opcode::Trunc},
        {"insf", Opcode::Insf},     {"extf", Opcode::Extf},
        {"inss", Opcode::Inss},     {"exts", Opcode::Exts},
        {"var", Opcode::Var},       {"ld", Opcode::Ld},
        {"st", Opcode::St},         {"alloc", Opcode::Alloc},
        {"free", Opcode::Free},     {"sig", Opcode::Sig},
        {"prb", Opcode::Prb},       {"drv", Opcode::Drv},
        {"con", Opcode::Con},       {"del", Opcode::Del},
        {"reg", Opcode::Reg},       {"inst", Opcode::InstOp},
        {"call", Opcode::Call},     {"ret", Opcode::Ret},
        {"br", Opcode::Br},         {"halt", Opcode::Halt},
        {"wait", Opcode::Wait},     {"phi", Opcode::Phi},
    };
    auto It = Map.find(S);
    if (It == Map.end())
      return std::nullopt;
    return It->second;
  }

  Instruction *parseOp(Unit *U, const std::string &OpName) {
    auto OpOpt = opcodeByName(OpName);
    if (!OpOpt) {
      error("unknown instruction '" + OpName + "'");
      return nullptr;
    }
    Opcode Op = *OpOpt;
    switch (Op) {
    case Opcode::Const:
      return parseConst();
    case Opcode::Neg:
    case Opcode::Not: {
      if (!parseType())
        return nullptr;
      Value *A = parseValueRef();
      if (!A)
        return nullptr;
      return Builder.unary(Op, A);
    }
    case Opcode::Zext:
    case Opcode::Sext:
    case Opcode::Trunc: {
      Type *To = parseType();
      if (!To)
        return nullptr;
      Value *A = parseValueRef();
      if (!A)
        return nullptr;
      return Builder.cast(Op, To, A);
    }
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::Ashr: {
      if (!parseType())
        return nullptr;
      Value *A = parseValueRef();
      if (!A || !expect(TokKind::Comma, "','"))
        return nullptr;
      if (!parseType())
        return nullptr;
      Value *Amt = parseValueRef();
      if (!Amt)
        return nullptr;
      return Builder.shift(Op, A, Amt);
    }
    case Opcode::Mux: {
      if (!parseType())
        return nullptr;
      Value *Arr = parseValueRef();
      if (!Arr || !expect(TokKind::Comma, "','"))
        return nullptr;
      Value *Sel = parseValueRef();
      if (!Sel)
        return nullptr;
      return Builder.mux(Arr, Sel);
    }
    case Opcode::Insf: {
      if (!parseType())
        return nullptr;
      Value *Agg = parseValueRef();
      if (!Agg || !expect(TokKind::Comma, "','"))
        return nullptr;
      Value *V = parseValueRef();
      if (!V || !expect(TokKind::Comma, "','"))
        return nullptr;
      unsigned Imm;
      if (!parseImm(Imm))
        return nullptr;
      return Builder.insf(Agg, V, Imm);
    }
    case Opcode::Extf: {
      if (!parseType())
        return nullptr;
      Value *Agg = parseValueRef();
      if (!Agg || !expect(TokKind::Comma, "','"))
        return nullptr;
      unsigned Imm;
      if (!parseImm(Imm))
        return nullptr;
      return Builder.extf(Agg, Imm);
    }
    case Opcode::Inss: {
      if (!parseType())
        return nullptr;
      Value *T = parseValueRef();
      if (!T || !expect(TokKind::Comma, "','"))
        return nullptr;
      Value *S = parseValueRef();
      if (!S || !expect(TokKind::Comma, "','"))
        return nullptr;
      unsigned Imm;
      if (!parseImm(Imm))
        return nullptr;
      return Builder.inss(T, S, Imm);
    }
    case Opcode::Exts: {
      Type *ResTy = parseType();
      if (!ResTy)
        return nullptr;
      Value *V = parseValueRef();
      if (!V || !expect(TokKind::Comma, "','"))
        return nullptr;
      unsigned Imm;
      if (!parseImm(Imm))
        return nullptr;
      // The printed type is the result type; derive the length from it.
      Type *Peeled = ResTy;
      if (auto *ST = dyn_cast<SignalType>(Peeled))
        Peeled = ST->inner();
      else if (auto *PT = dyn_cast<PointerType>(Peeled))
        Peeled = PT->pointee();
      unsigned Length;
      if (auto *IT = dyn_cast<IntType>(Peeled))
        Length = IT->width();
      else if (auto *LT = dyn_cast<LogicType>(Peeled))
        Length = LT->width();
      else if (auto *AT = dyn_cast<ArrayType>(Peeled))
        Length = AT->length();
      else {
        error("invalid exts result type");
        return nullptr;
      }
      Instruction *I = Builder.exts(V, Imm, Length);
      if (I->type() != ResTy) {
        error("exts result type mismatch");
        return nullptr;
      }
      return I;
    }
    case Opcode::Var:
    case Opcode::Alloc: {
      if (!parseType())
        return nullptr;
      Value *Init = parseValueRef();
      if (!Init)
        return nullptr;
      return Op == Opcode::Var ? Builder.var(Init) : Builder.alloc(Init);
    }
    case Opcode::Ld:
    case Opcode::Free:
    case Opcode::Prb: {
      if (!parseType())
        return nullptr;
      Value *P = parseValueRef();
      if (!P)
        return nullptr;
      if (Op == Opcode::Ld)
        return Builder.ld(P);
      if (Op == Opcode::Free)
        return Builder.freeMem(P);
      return Builder.prb(P);
    }
    case Opcode::St: {
      if (!parseType())
        return nullptr;
      Value *P = parseValueRef();
      if (!P || !expect(TokKind::Comma, "','"))
        return nullptr;
      Value *V = parseValueRef();
      if (!V)
        return nullptr;
      return Builder.st(P, V);
    }
    case Opcode::Sig: {
      if (!parseType())
        return nullptr;
      Value *Init = parseValueRef();
      if (!Init)
        return nullptr;
      return Builder.sig(Init);
    }
    case Opcode::Drv: {
      if (!parseType())
        return nullptr;
      Value *S = parseValueRef();
      if (!S || !expect(TokKind::Comma, "','"))
        return nullptr;
      Value *V = parseValueRef();
      if (!V || !acceptIdent("after")) {
        error("expected 'after' in drv");
        return nullptr;
      }
      Value *D = parseValueRef();
      if (!D)
        return nullptr;
      Value *Cond = nullptr;
      if (acceptIdent("if")) {
        Cond = parseValueRef();
        if (!Cond)
          return nullptr;
      }
      return Builder.drv(S, V, D, Cond);
    }
    case Opcode::Con: {
      if (!parseType())
        return nullptr;
      Value *A = parseValueRef();
      if (!A || !expect(TokKind::Comma, "','"))
        return nullptr;
      Value *B = parseValueRef();
      if (!B)
        return nullptr;
      return Builder.con(A, B);
    }
    case Opcode::Del: {
      if (!parseType())
        return nullptr;
      Value *T = parseValueRef();
      if (!T || !expect(TokKind::Comma, "','"))
        return nullptr;
      Value *S = parseValueRef();
      if (!S || !acceptIdent("after")) {
        error("expected 'after' in del");
        return nullptr;
      }
      Value *D = parseValueRef();
      if (!D)
        return nullptr;
      return Builder.del(T, S, D);
    }
    case Opcode::Reg:
      return parseReg();
    case Opcode::InstOp:
      return parseInstOp();
    case Opcode::Call:
      return parseCall();
    case Opcode::Ret: {
      // "ret" or "ret <ty> %v"; a type token only follows for the latter.
      if (Tok.Kind == TokKind::Ident || Tok.Kind == TokKind::LBracket ||
          Tok.Kind == TokKind::LBrace) {
        if (!parseType())
          return nullptr;
        Value *V = parseValueRef();
        if (!V)
          return nullptr;
        return Builder.ret(V);
      }
      return Builder.ret();
    }
    case Opcode::Br: {
      if (Tok.Kind != TokKind::LocalName) {
        error("expected branch operand");
        return nullptr;
      }
      std::string First = Tok.Text;
      advance();
      if (!accept(TokKind::Comma))
        return Builder.br(getBlock(U, First));
      Value *Cond = getValue(First);
      if (!Cond)
        return nullptr;
      BasicBlock *F = parseBlockRef(U);
      if (!F || !expect(TokKind::Comma, "','"))
        return nullptr;
      BasicBlock *T = parseBlockRef(U);
      if (!T)
        return nullptr;
      return Builder.condBr(Cond, F, T);
    }
    case Opcode::Halt:
      return Builder.halt();
    case Opcode::Wait: {
      BasicBlock *Dest = parseBlockRef(U);
      if (!Dest)
        return nullptr;
      std::vector<Value *> Observed;
      Value *Timeout = nullptr;
      if (acceptIdent("for")) {
        do {
          Value *V = parseValueRef();
          if (!V)
            return nullptr;
          if (V->type()->isTime()) {
            if (Timeout) {
              error("multiple wait timeouts");
              return nullptr;
            }
            Timeout = V;
          } else {
            Observed.push_back(V);
          }
        } while (accept(TokKind::Comma));
      }
      return Builder.wait(Dest, Observed, Timeout);
    }
    case Opcode::Phi:
      return parsePhi(U);
    default: {
      // Binary arithmetic / bitwise / comparisons.
      if (!parseType())
        return nullptr;
      Value *A = parseValueRef();
      if (!A || !expect(TokKind::Comma, "','"))
        return nullptr;
      Value *B = parseValueRef();
      if (!B)
        return nullptr;
      Instruction *I = new Instruction(
          Op,
          (Op >= Opcode::Eq && Op <= Opcode::Sge) ? Ctx.boolType()
                                                  : A->type());
      I->appendOperand(A);
      I->appendOperand(B);
      return Builder.insert(I);
    }
    }
  }

  bool parseImm(unsigned &Out) {
    if (Tok.Kind != TokKind::Number)
      return error("expected immediate");
    uint64_t V;
    if (!number(Tok.Text, UINT32_MAX, "immediate", V))
      return false;
    Out = static_cast<unsigned>(V);
    advance();
    return true;
  }

  Instruction *parseConst() {
    Type *Ty = parseType();
    if (!Ty)
      return nullptr;
    switch (Ty->kind()) {
    case Type::Kind::Int: {
      if (Tok.Kind != TokKind::Number && Tok.Kind != TokKind::Ident) {
        error("expected integer literal");
        return nullptr;
      }
      IntValue V =
          IntValue::fromString(cast<IntType>(Ty)->width(), Tok.Text);
      advance();
      return Builder.constInt(std::move(V));
    }
    case Type::Kind::Enum: {
      if (Tok.Kind != TokKind::Number) {
        error("expected enum literal");
        return nullptr;
      }
      uint64_t V;
      if (!number(Tok.Text, UINT64_MAX, "enum literal", V))
        return nullptr;
      advance();
      return Builder.constEnum(cast<EnumType>(Ty), V);
    }
    case Type::Kind::Logic: {
      if (Tok.Kind != TokKind::String) {
        error("expected logic string literal");
        return nullptr;
      }
      LogicVec V = LogicVec::fromString(Tok.Text);
      if (V.width() != cast<LogicType>(Ty)->width()) {
        error("logic literal width mismatch");
        return nullptr;
      }
      advance();
      return Builder.constLogic(std::move(V));
    }
    case Type::Kind::Time: {
      // Time literals: "1ns" possibly followed by "2d" "3e".
      auto isDeltaEps = [](const Token &T) {
        if (T.Kind != TokKind::Ident || T.Text.size() < 2)
          return false;
        char Last = T.Text.back();
        if (Last != 'd' && Last != 'e')
          return false;
        for (size_t I = 0; I + 1 < T.Text.size(); ++I)
          if (!std::isdigit(static_cast<unsigned char>(T.Text[I])))
            return false;
        return true;
      };
      if (Tok.Kind != TokKind::Ident && Tok.Kind != TokKind::Number) {
        error("expected time literal");
        return nullptr;
      }
      std::string Text = Tok.Text;
      advance();
      while (isDeltaEps(Tok)) {
        Text += " " + Tok.Text;
        advance();
      }
      Time T;
      if (!Time::parse(Text, T)) {
        error("invalid time literal '" + Text + "'");
        return nullptr;
      }
      return Builder.constTime(T);
    }
    default:
      error("invalid constant type");
      return nullptr;
    }
  }

  Instruction *parseReg() {
    if (!parseType())
      return nullptr;
    Value *Sig = parseValueRef();
    if (!Sig)
      return nullptr;
    std::vector<IRBuilder::RegEntry> Entries;
    while (accept(TokKind::Comma)) {
      IRBuilder::RegEntry E;
      E.StoredValue = parseValueRef();
      if (!E.StoredValue)
        return nullptr;
      if (acceptIdent("low"))
        E.Mode = RegMode::Low;
      else if (acceptIdent("high"))
        E.Mode = RegMode::High;
      else if (acceptIdent("rise"))
        E.Mode = RegMode::Rise;
      else if (acceptIdent("fall"))
        E.Mode = RegMode::Fall;
      else if (acceptIdent("both"))
        E.Mode = RegMode::Both;
      else {
        error("expected reg trigger mode");
        return nullptr;
      }
      E.Trigger = parseValueRef();
      if (!E.Trigger)
        return nullptr;
      if (acceptIdent("after")) {
        E.Delay = parseValueRef();
        if (!E.Delay)
          return nullptr;
      }
      if (acceptIdent("if")) {
        E.Cond = parseValueRef();
        if (!E.Cond)
          return nullptr;
      }
      Entries.push_back(E);
    }
    if (Entries.empty()) {
      error("reg needs at least one trigger");
      return nullptr;
    }
    return Builder.reg(Sig, Entries);
  }

  Instruction *parseInstOp() {
    if (Tok.Kind != TokKind::GlobalName) {
      error("expected unit name");
      return nullptr;
    }
    std::string Callee = Tok.Text;
    advance();
    std::vector<Value *> Inputs, Outputs;
    if (!parsePortList(Inputs))
      return nullptr;
    if (!expect(TokKind::Arrow, "'->'"))
      return nullptr;
    if (!parsePortList(Outputs))
      return nullptr;
    Unit *CU = M.unitByName(Callee);
    if (!CU) {
      // Forward reference: auto-declare with the signature implied by the
      // port list. A later definition in this file completes it.
      CU = M.declareUnit(Unit::Kind::Entity, Callee);
      AutoDecls.insert(CU);
      for (Value *V : Inputs)
        CU->addInput(V->type(), "");
      for (Value *V : Outputs)
        CU->addOutput(V->type(), "");
    }
    if (CU->inputs().size() != Inputs.size() ||
        CU->outputs().size() != Outputs.size()) {
      error("inst arity mismatch for @" + Callee);
      return nullptr;
    }
    return Builder.inst(CU, Inputs, Outputs);
  }

  bool parsePortList(std::vector<Value *> &Out) {
    if (!expect(TokKind::LParen, "'('"))
      return false;
    if (Tok.Kind != TokKind::RParen) {
      do {
        if (!parseType())
          return false;
        Value *V = parseValueRef();
        if (!V)
          return false;
        Out.push_back(V);
      } while (accept(TokKind::Comma));
    }
    return expect(TokKind::RParen, "')'");
  }

  Instruction *parseCall() {
    Type *RetTy = parseType();
    if (!RetTy)
      return nullptr;
    if (Tok.Kind != TokKind::GlobalName) {
      error("expected function name");
      return nullptr;
    }
    std::string Callee = Tok.Text;
    advance();
    std::vector<Value *> Args;
    if (!parsePortList(Args))
      return nullptr;
    Unit *CU = M.unitByName(Callee);
    if (!CU) {
      // Intrinsics may be called without prior declaration; other callees
      // become forward-referenced declarations completed later.
      if (Callee.rfind("llhd.", 0) == 0) {
        CU = M.intrinsic(Callee);
        CU->setReturnType(RetTy);
        for (unsigned I = 0; I != Args.size(); ++I)
          if (CU->inputs().size() <= I)
            CU->addInput(Args[I]->type(), "");
      } else {
        CU = M.declareUnit(Unit::Kind::Function, Callee);
        AutoDecls.insert(CU);
        CU->setReturnType(RetTy);
        for (Value *V : Args)
          CU->addInput(V->type(), "");
      }
    }
    return Builder.call(CU, Args);
  }

  Instruction *parsePhi(Unit *U) {
    Type *Ty = parseType();
    if (!Ty)
      return nullptr;
    std::vector<std::pair<Value *, BasicBlock *>> In;
    do {
      if (!expect(TokKind::LBracket, "'['"))
        return nullptr;
      if (Tok.Kind != TokKind::LocalName) {
        error("expected phi incoming value");
        return nullptr;
      }
      std::string VName = Tok.Text;
      advance();
      if (!expect(TokKind::Comma, "','"))
        return nullptr;
      BasicBlock *BB = parseBlockRef(U);
      if (!BB || !expect(TokKind::RBracket, "']'"))
        return nullptr;
      In.push_back({getValueForward(VName, Ty), BB});
    } while (accept(TokKind::Comma));
    return Builder.phi(Ty, In);
  }

  //===------------------------------------------------------------------===//
  // State.
  //===------------------------------------------------------------------===//

  Lexer Lex;
  Module &M;
  Context &Ctx;
  IRBuilder Builder{Ctx};
  Token Tok;
  Token Pending;
  bool HasPending = false;
  std::map<std::string, Value *> Values;
  std::map<std::string, BasicBlock *> Blocks;
  std::map<std::string, Argument *> Placeholders;
  std::set<Unit *> AutoDecls;
  std::string ErrMsg;
  unsigned ErrLine = 0;
};

} // namespace

ParseResult llhd::parseModule(const std::string &Text, Module &M) {
  Parser P(Text, M);
  return P.run();
}
