//===- sim/Kernel.cpp - Simulation kernel -------------------------------------===//

#include "sim/Kernel.h"
#include "sim/RtOps.h"

#include <algorithm>
#include <sstream>

using namespace llhd;

//===----------------------------------------------------------------------===//
// SignalTable
//===----------------------------------------------------------------------===//

SignalId SignalTable::create(Type *Ty, RtValue Init, std::string Name) {
  Layout &B = bld();
  B.Ty.push_back(Ty);
  B.Name.push_back(std::move(Name));
  B.Parents.push_back(static_cast<SignalId>(B.Ty.size() - 1));
  B.Aliases.emplace_back();
  Values.push_back(std::move(Init));
  Drivers.emplace_back();
  return static_cast<SignalId>(B.Ty.size() - 1);
}

void SignalTable::connect(SignalId A, SignalId B) {
  A = canonical(A);
  B = canonical(B);
  if (A == B)
    return;
  // The lower id wins as the root; its current value is kept.
  if (B < A)
    std::swap(A, B);
  bld().Parents[B] = A;
}

void SignalTable::freeze() {
  if (frozen())
    return;
  Layout &B = bld();
  // Full path compression: every parent chain collapses to one hop, so
  // post-freeze ufRoot() is a pure read (shareable across threads).
  for (SignalId S = 0; S != B.Parents.size(); ++S) {
    SignalId Root = S;
    while (B.Parents[Root] != Root)
      Root = B.Parents[Root];
    B.Parents[S] = Root;
  }
  B.Init = Values;
  // canonical() takes the slow path until Frozen is set, last.
  B.Canon.resize(B.Parents.size());
  B.WordCanon.assign(B.Parents.size(), InvalidSignal);
  for (SignalId S = 0; S != B.Parents.size(); ++S) {
    B.Canon[S] = canonical(S);
    SignalId Root = B.Parents[S];
    const RtValue &V = Values[Root];
    bool Logic = B.Ty[Root] && B.Ty[Root]->isLogic();
    if (!B.Aliases[Root].valid() && V.isInt() &&
        V.intValue().width() <= 64 && !Logic)
      B.WordCanon[S] = Root;
  }
  B.Frozen = true;
}

SignalTable SignalTable::makeRun() const {
  assert(frozen() && "makeRun() requires a frozen layout");
  SignalTable Run;
  Run.L = L;
  Run.Values = L->Init;
  Run.Drivers.resize(L->Init.size());
  return Run;
}

SigRef SignalTable::resolve(const SigRef &Ref) const {
  SigRef R = Ref;
  R.Sig = ufRoot(R.Sig);
  while (L->Aliases[R.Sig].valid()) {
    // Compose: the alias target is the prefix, then this reference's
    // own narrowing on top of it. Targets are element-aligned by
    // construction (connectRefs), so element()/elements() compose.
    SigRef N = L->Aliases[R.Sig];
    N.Sig = ufRoot(N.Sig);
    for (uint32_t Idx : R.Path)
      N = N.element(Idx);
    if (R.ElemOff >= 0)
      N = N.elements(R.ElemOff, R.ElemLen);
    if (R.BitOff >= 0)
      N = N.bits(R.BitOff, R.BitLen);
    R = std::move(N);
    R.Sig = ufRoot(R.Sig);
  }
  return R;
}

bool SignalTable::connectRefs(const SigRef &ARaw, const SigRef &BRaw) {
  SigRef A = resolve(ARaw), B = resolve(BRaw);
  if (A.wholeSignal() && B.wholeSignal()) {
    connect(A.Sig, B.Sig);
    return true;
  }
  // One side must be a whole signal, the other an element-aligned
  // sub-signal; the whole side becomes an alias view of the sub-ref.
  const SigRef *Sub = nullptr;
  SignalId Whole = InvalidSignal;
  if (A.wholeSignal() && B.BitOff < 0) {
    Whole = A.Sig;
    Sub = &B;
  } else if (B.wholeSignal() && A.BitOff < 0) {
    Whole = B.Sig;
    Sub = &A;
  } else {
    return false;
  }
  if (Sub->Sig == Whole)
    return false; // Self-alias would cycle.
  bld().Aliases[Whole] = *Sub;
  return true;
}

RtValue SignalTable::read(const SigRef &Ref) const {
  // Fast path: no alias on the root — the overwhelmingly common case,
  // and allocation-free for scalar signals.
  SignalId Root = ufRoot(Ref.Sig);
  if (!L->Aliases[Root].valid())
    return readSubValue(Values[Root], Ref);
  SigRef R = resolve(Ref);
  return readSubValue(Values[R.Sig], R);
}

bool SignalTable::write(const SigRef &RefIn, const RtValue &V,
                        uint64_t Driver) {
  SigRef Resolved;
  const SigRef *RefP = &RefIn;
  SignalId Root = ufRoot(RefIn.Sig);
  if (L->Aliases[Root].valid()) {
    Resolved = resolve(RefIn);
    RefP = &Resolved;
    Root = Resolved.Sig;
  }
  const SigRef &Ref = *RefP;
  RtValue &SV = Values[Root];
  Type *Ty = L->Ty[Root];

  // Multi-driver resolution for whole-signal logic drives: each driver
  // keeps its contribution in a slot found by binary search; the signal
  // value is the IEEE 1164 resolution over all of them (commutative, so
  // slot order does not affect the result).
  if (Ty && Ty->isLogic() && Ref.wholeSignal()) {
    std::vector<std::pair<uint64_t, RtValue>> &Slots = Drivers[Root];
    auto It = std::lower_bound(
        Slots.begin(), Slots.end(), Driver,
        [](const auto &P, uint64_t D) { return P.first < D; });
    if (It == Slots.end() || It->first != Driver)
      It = Slots.insert(It, {Driver, V});
    else
      It->second = V;
    RtValue R = Slots.front().second;
    for (unsigned I = 1; I < Slots.size(); ++I)
      R = RtValue(R.logicValue().resolve(Slots[I].second.logicValue()));
    if (R == SV)
      return false;
    SV = std::move(R);
    return true;
  }

  // Two-state drives: last write wins. A whole signal compares and
  // assigns in place (an array reuses its element buffer); sub-signals
  // splice through a copy of the old element.
  if (Ref.wholeSignal()) {
    if (SV == V)
      return false;
    SV = V;
    return true;
  }
  RtValue Old = readSubValue(SV, Ref);
  if (Old == V)
    return false;
  writeSubValue(SV, Ref, V);
  return true;
}

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

uint32_t Scheduler::allocSlot() {
  if (!FreeSlots.empty()) {
    uint32_t Idx = FreeSlots.back();
    FreeSlots.pop_back();
    return Idx;
  }
  Arena.emplace_back();
  return Arena.size() - 1;
}

void Scheduler::recycle(uint32_t Idx, SlotEvents &Out) {
  // The caller's buffers hold no events: swapping hands the slot's
  // events over without touching them, and leaves the slot buffers whose
  // capacity (and spent general payloads) let it schedule again without
  // allocating.
  assert(Out.Entries.empty() && !Out.NumGeneral && Out.Wakes.empty());
  Out.swap(Arena[Idx]);
  FreeSlots.push_back(Idx);
}

SlotEvents &Scheduler::slotFor(Time T) {
  if (T.Fs <= HeadFs) {
    // Fast lane: sorted linear scan — the lane holds the current
    // instant's few pending delta/epsilon slots.
    size_t I = 0;
    while (I != Fast.size() && Fast[I].T < T)
      ++I;
    if (I != Fast.size() && Fast[I].T == T)
      return Arena[Fast[I].Idx];
    uint32_t Idx = allocSlot();
    Fast.insert(Fast.begin() + I, {T, Idx});
    return Arena[Idx];
  }
  // Heap lane: merge into the existing slot for T if there is one, so
  // equal-time events stay in scheduling order.
  for (const Ref &R : Heap)
    if (R.T == T)
      return Arena[R.Idx];
  uint32_t Idx = allocSlot();
  Heap.push_back({T, Idx});
  std::push_heap(Heap.begin(), Heap.end(), HeapOrder());
  return Arena[Idx];
}

void Scheduler::pop(SlotEvents &Out) {
  Out.clear();
  MemoValid = false; // The memoed slot may be the one being recycled.
  // The lanes are disjoint (fast: Fs <= HeadFs, heap: Fs > HeadFs), so
  // a nonempty fast lane always holds the earliest slot.
  if (!Fast.empty()) {
    uint32_t Idx = Fast.front().Idx;
    Fast.erase(Fast.begin());
    recycle(Idx, Out);
    return;
  }
  Time T = Heap.front().T;
  std::pop_heap(Heap.begin(), Heap.end(), HeapOrder());
  uint32_t Idx = Heap.back().Idx;
  Heap.pop_back();
  recycle(Idx, Out);
  // A new physical instant begins: anchor the fast lane to it and pull
  // over any already-scheduled slots of the same instant (they are at
  // the top of the heap, and arrive in ascending time order).
  HeadFs = T.Fs;
  while (!Heap.empty() && Heap.front().T.Fs == HeadFs) {
    Ref R = Heap.front();
    std::pop_heap(Heap.begin(), Heap.end(), HeapOrder());
    Heap.pop_back();
    Fast.push_back(R);
  }
}

std::vector<Scheduler::PendingSlot>
Scheduler::pendingSlots(const SignalTable &Signals) const {
  auto copyOut = [&](const Ref &R) {
    const SlotEvents &S = Arena[R.Idx];
    PendingSlot P{R.T, {}, S.Wakes};
    P.Updates.reserve(S.Entries.size());
    for (const UpdateEntry &E : S.Entries) {
      if (E.Sig == InvalidSignal) {
        P.Updates.push_back(S.General[E.Aux]);
        continue;
      }
      SigUpdate U;
      U.Ref.Sig = E.Sig;
      U.Val = RtValue(
          IntValue(Signals.storedValue(E.Sig).intValue().width(), E.Word));
      U.Driver = E.Driver;
      P.Updates.push_back(std::move(U));
    }
    return P;
  };
  std::vector<PendingSlot> Out;
  Out.reserve(Fast.size() + Heap.size());
  // The fast lane is already sorted and strictly precedes every heap
  // slot; the heap's array order is not sorted, so sort the copies.
  for (const Ref &R : Fast)
    Out.push_back(copyOut(R));
  size_t HeapBegin = Out.size();
  for (const Ref &R : Heap)
    Out.push_back(copyOut(R));
  std::sort(Out.begin() + HeapBegin, Out.end(),
            [](const PendingSlot &A, const PendingSlot &B) {
              return A.T < B.T;
            });
  return Out;
}

//===----------------------------------------------------------------------===//
// Trace
//===----------------------------------------------------------------------===//

std::string Trace::dump(const SignalTable &Signals) const {
  std::ostringstream OS;
  for (const Change &C : Changes)
    OS << C.T.toString() << " " << Signals.name(C.Sig) << " = "
       << C.Val << "\n";
  return OS.str();
}
