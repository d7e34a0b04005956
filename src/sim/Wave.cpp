//===- sim/Wave.cpp - VCD waveform observer ------------------------------===//

#include "sim/Wave.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <fstream>
#include <ostream>

using namespace llhd;

namespace {

/// Allocates the VCD identifier code of \p Index: positional base-94 over
/// the printable characters '!'..'~', least-significant first, matching
/// the compact codes conventional VCD writers produce. Returns the
/// length written to \p Code.
uint8_t vcdCode(unsigned Index, char *Code) {
  uint8_t Len = 0;
  do {
    Code[Len++] = static_cast<char>('!' + Index % 94);
    Index /= 94;
  } while (Index != 0);
  return Len;
}

/// Maps a nine-valued logic element onto VCD's four-state alphabet:
/// forcing/weak 0 and 1 keep their strength-stripped value, Z stays Z,
/// everything unknown (U, X, W, '-') becomes x.
char vcdLogicChar(Logic L) {
  switch (L) {
  case Logic::L0:
  case Logic::L:
    return '0';
  case Logic::L1:
  case Logic::H:
    return '1';
  case Logic::Z:
    return 'z';
  default:
    return 'x';
  }
}

/// Dumpable payload width; 0 for values VCD cannot represent as a wire
/// (times, aggregates, pointers).
unsigned dumpableWidth(const RtValue &V) {
  if (V.isInt())
    return V.intValue().width();
  if (V.isLogic())
    return V.logicValue().width();
  return 0;
}

/// Renders a text-lane value-change line (without the trailing newline):
/// scalar form "0!" for width-1 signals, vector form "b101 !" otherwise.
/// Wide two-state values are trimmed to the shortest binary spelling, as
/// appendVcdWord() does for the word lane; logic vectors keep their full
/// width so x/z left-extension is never ambiguous.
std::string vcdValue(const RtValue &V, std::string_view Code) {
  std::string Line;
  if (V.isInt()) {
    const IntValue &IV = V.intValue();
    unsigned W = IV.width();
    if (W == 1)
      return (IV.bit(0) ? "1" : "0") + std::string(Code);
    Line = "b";
    bool Seen = false;
    for (unsigned I = W; I-- > 0;) {
      bool B = IV.bit(I);
      if (!Seen && !B && I != 0)
        continue; // Trim leading zeros, keep at least one digit.
      Seen |= B;
      Line += B ? '1' : '0';
    }
  } else {
    const LogicVec &LV = V.logicValue();
    unsigned W = LV.width();
    if (W == 1)
      return vcdLogicChar(LV.bit(0)) + std::string(Code);
    Line = "b";
    for (unsigned I = W; I-- > 0;)
      Line += vcdLogicChar(LV.bit(I));
  }
  Line += ' ';
  Line += Code;
  return Line;
}

/// The eight binary digits of every byte value, most significant first.
constexpr auto ByteDigits = [] {
  std::array<std::array<char, 8>, 256> T{};
  for (unsigned B = 0; B != 256; ++B)
    for (unsigned I = 0; I != 8; ++I)
      T[B][I] = (B >> (7 - I)) & 1 ? '1' : '0';
  return T;
}();

/// Appends the timestamp line "#<Fs>\n".
void appendTimestamp(std::string &Out, uint64_t Fs) {
  char Buf[24];
  char *End = Buf + sizeof(Buf), *P = End;
  *--P = '\n';
  do
    *--P = static_cast<char>('0' + Fs % 10);
  while (Fs /= 10);
  *--P = '#';
  Out.append(P, End - P);
}

/// One node of the reconstructed instance hierarchy.
struct ScopeNode {
  /// Child scopes in first-appearance order (signal-id order, which is
  /// elaboration order and therefore identical across engines).
  std::vector<std::pair<std::string, ScopeNode>> Children;
  /// (name, signal, width) variables declared directly in this scope.
  struct VarDecl {
    std::string Name;
    SignalId Sig;
    unsigned Width;
  };
  std::vector<VarDecl> Decls;

  ScopeNode &child(const std::string &Name) {
    for (auto &C : Children)
      if (C.first == Name)
        return C.second;
    Children.emplace_back(Name, ScopeNode());
    return Children.back().second;
  }
};

} // namespace

void llhd::appendVcdWord(std::string &Out, uint64_t Word, unsigned Width,
                         std::string_view Code) {
  assert(Width >= 1 && Width <= 64 && Code.size() <= WaveWriter::MaxCodeLen);
  char Buf[1 + 64 + 1 + WaveWriter::MaxCodeLen + 1];
  char *P = Buf;
  if (Width == 1) {
    *P++ = static_cast<char>('0' + (Word & 1));
  } else {
    // The significant bits (at least one), a byte's digits at a time:
    // first the 1..8 of the top byte, then whole bytes.
    *P++ = 'b';
    unsigned N = std::max(1u, static_cast<unsigned>(std::bit_width(Word)));
    unsigned Byte = (N - 1) / 8, Lead = N - 8 * Byte;
    std::memcpy(P, &ByteDigits[(Word >> 8 * Byte) & 0xff][8 - Lead], Lead);
    P += Lead;
    while (Byte-- > 0) {
      std::memcpy(P, ByteDigits[(Word >> 8 * Byte) & 0xff].data(), 8);
      P += 8;
    }
    *P++ = ' ';
  }
  std::memcpy(P, Code.data(), Code.size());
  P += Code.size();
  *P++ = '\n';
  Out.append(Buf, P - Buf);
}

/// Allocates the variables of \p Signals — the canonical, dumpable ones,
/// with codes in canonical-signal order — and seeds each one's last
/// dumped value from its current value. Shared by begin() and resume(),
/// so both allocate identical codes.
void WaveWriter::declareVars(const SignalTable &Signals) {
  unsigned N = Signals.size();
  NumVars = 0;
  Vars.assign(N, Var());
  PendingText.assign(N, std::string());
  LastText.assign(N, std::string());
  for (SignalId S = 0; S != N; ++S) {
    if (Signals.canonical(S) != S)
      continue;
    const RtValue &V = Signals.value(S);
    unsigned W = dumpableWidth(V);
    if (W == 0)
      continue; // Aggregate/time-valued signals have no VCD form.
    Var &X = Vars[S];
    X.Width = W;
    X.CodeLen = vcdCode(NumVars++, X.Code);
    Type *Ty = Signals.type(S);
    if (V.isInt() && W <= 64 && !(Ty && Ty->isLogic())) {
      X.L = Lane::Word;
      X.Last = V.intValue().zextToU64();
    } else {
      X.L = Lane::Text;
      LastText[S] = vcdValue(V, X.code());
    }
  }
}

/// Appends the last dumped value line of variable \p S.
void WaveWriter::appendLast(SignalId S) {
  const Var &X = Vars[S];
  if (X.L == Lane::Word) {
    appendVcdWord(Out, X.Last, X.Width, X.code());
    return;
  }
  Out += LastText[S];
  Out += '\n';
}

void WaveWriter::begin(const SignalTable &Signals) {
  declareVars(Signals);
  unsigned N = Signals.size();

  // Build the scope tree from the hierarchical signal names. Only
  // canonical signals get a variable: `con` aliases share their root's
  // value and would dump the same change twice.
  ScopeNode Root;
  for (SignalId S = 0; S != N; ++S) {
    if (Vars[S].L == Lane::None)
      continue;
    const std::string &Name = Signals.name(S);
    ScopeNode *Scope = &Root;
    size_t Start = 0;
    for (size_t Slash = Name.find('/'); Slash != std::string::npos;
         Slash = Name.find('/', Start)) {
      Scope = &Scope->child(Name.substr(Start, Slash - Start));
      Start = Slash + 1;
    }
    std::string Leaf = Name.substr(Start);
    // Elaboration can produce sibling signals with one name (unnamed
    // `sig` results); qualify repeats until every $var is unique (the
    // qualified name can itself collide with a literal sibling name).
    auto taken = [&] {
      for (const ScopeNode::VarDecl &Dcl : Scope->Decls)
        if (Dcl.Name == Leaf)
          return true;
      return false;
    };
    if (taken()) {
      std::string Base = Leaf + "_" + std::to_string(S);
      Leaf = Base;
      for (unsigned Suffix = 1; taken(); ++Suffix)
        Leaf = Base + "_" + std::to_string(Suffix);
    }
    Scope->Decls.push_back({std::move(Leaf), S, Vars[S].Width});
  }

  // Header. Everything here must be deterministic — no dates, no host
  // information — so that dumps compare byte-for-byte across engines.
  Out += "$version llhd-sim $end\n";
  Out += "$timescale 1fs $end\n";

  // Recursive scope emission, iteratively with an explicit stack to keep
  // arbitrarily deep hierarchies safe.
  struct Frame {
    const ScopeNode *N;
    size_t NextChild = 0;
    bool DeclsDone = false;
  };
  std::vector<Frame> Stack;
  Stack.push_back({&Root});
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (!F.DeclsDone) {
      F.DeclsDone = true;
      for (const ScopeNode::VarDecl &Dcl : F.N->Decls) {
        Out += "$var wire " + std::to_string(Dcl.Width) + " ";
        Out += Vars[Dcl.Sig].code();
        Out += " " + Dcl.Name;
        if (Dcl.Width > 1)
          Out += " [" + std::to_string(Dcl.Width - 1) + ":0]";
        Out += " $end\n";
      }
    }
    if (F.NextChild < F.N->Children.size()) {
      const auto &C = F.N->Children[F.NextChild++];
      Out += "$scope module " + C.first + " $end\n";
      Stack.push_back({&C.second});
      continue;
    }
    Stack.pop_back();
    if (!Stack.empty())
      Out += "$upscope $end\n";
  }
  Out += "$enddefinitions $end\n";

  // Initial state: every variable's elaboration-time value at #0.
  Out += "#0\n$dumpvars\n";
  for (SignalId S = 0; S != N; ++S)
    if (Vars[S].L != Lane::None)
      appendLast(S);
  Out += "$end\n";
  drain();
}

void WaveWriter::drain() {
  if (!Sink || Out.empty())
    return;
  Sink->write(Out.data(), static_cast<std::streamsize>(Out.size()));
  Drained += Out.size();
  Out.clear();
}

void WaveWriter::onChange(Time T, SignalId S, const RtValue &V) {
  if (S >= Vars.size() || Vars[S].L == Lane::None)
    return; // Not begun, or not a variable.
  if (T.Fs != PendingFs) {
    flushPending();
    PendingFs = T.Fs;
  }
  Var &X = Vars[S];
  if (!X.Dirty) {
    X.Dirty = true;
    Touched.push_back(S);
  }
  if (X.L == Lane::Word) {
    assert(V.isInt() && "word-lane variable changed kind");
    X.Pending = V.intValue().zextToU64();
  } else
    PendingText[S] = vcdValue(V, X.code());
}

void WaveWriter::flushPending() {
  if (Touched.empty())
    return;
  // Ascending signal-id order: deterministic and engine-independent
  // (first-touch order within an instant can differ between delta
  // rounds, the set of settled values cannot).
  std::sort(Touched.begin(), Touched.end());
  bool WroteTs = false;
  for (SignalId S : Touched) {
    Var &X = Vars[S];
    X.Dirty = false;
    if (X.L == Lane::Word) {
      if (X.Pending == X.Last)
        continue;
      X.Last = X.Pending;
    } else {
      std::string &Val = PendingText[S];
      bool Changed = Val != LastText[S];
      if (Changed)
        LastText[S].swap(Val);
      Val.clear();
      if (!Changed)
        continue;
    }
    if (!WroteTs && PendingFs != 0) // #0 is current from $dumpvars.
      appendTimestamp(Out, PendingFs);
    WroteTs = true;
    appendLast(S);
    ++DumpedChanges;
  }
  Touched.clear();
  drain();
}

void WaveWriter::resume(const SignalTable &Signals) {
  // The same allocation as begin(), minus every byte of output: codes
  // come out identical, and the last dumped values are seeded from the
  // restored signal table — the values the interrupted writer had last
  // dumped (checkpoints only happen with the pending instant flushed and
  // settled).
  declareVars(Signals);
}

void WaveWriter::finish() { flushNow(); }

void WaveWriter::flushNow() {
  flushPending();
  drain();
  if (Sink)
    Sink->flush();
}

bool WaveWriter::writeToFile(const std::string &Path) const {
  std::ofstream OutFile(Path, std::ios::binary);
  if (!OutFile)
    return false;
  OutFile << Out;
  return static_cast<bool>(OutFile);
}
