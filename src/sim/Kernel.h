//===- sim/Kernel.h - Simulation kernel: signals, queue, trace ---*- C++ -*-===//
//
// The shared simulation kernel (§6.1): the signal table with sub-signal
// reads/writes, `con` aliasing and IEEE 1164 multi-driver resolution, the
// (time, delta, epsilon) event wheel, and the signal-change trace used
// for cross-simulator equivalence checking.
//
// The event wheel is a two-lane design (DESIGN.md): a current-instant
// fast lane holding the handful of pending delta/epsilon slots at the
// head physical time, and a binary min-heap of future time slots. Slots
// are recycled through a pool, so steady-state scheduling performs no
// allocation. Each slot keeps its signal updates in one ordered list of
// 24-byte entries: a drive of a whole two-state signal of at most 64
// bits carries its new value inline (the word lane), every other update
// points into a side vector of general SigUpdates. The wake set is
// computed through dense reverse indices — entity watchers live in
// Design, dynamic process sensitivity in WakeIndex — instead of
// per-process scans.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SIM_KERNEL_H
#define LLHD_SIM_KERNEL_H

#include "ir/Type.h"
#include "sim/RtValue.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace llhd {

//===----------------------------------------------------------------------===//
// SignalTable
//===----------------------------------------------------------------------===//

/// All elaborated signals of a design.
///
/// The table has two lives. During elaboration it is a builder:
/// create()/connect()/connectRefs() grow the layout (types, names, `con`
/// union-find, alias records). elaborate() then calls freeze(), which
/// fully path-compresses the union-find, precomputes the canonical map,
/// snapshots the initial values, and moves the whole layout behind a
/// `shared_ptr<const Layout>`. From that point the table is a per-run
/// view: copies (and makeRun()) share the immutable layout and carry only
/// this run's values and driver slots, so N batch instances read one
/// layout concurrently without any synchronisation while writing their
/// private state.
///
/// Stored values have stable addresses for the lifetime of a run: the
/// value vector is sized once (create() while building, makeRun() per
/// run) and never resized afterwards, and every later update — write(),
/// setStoredValue() on checkpoint restore — assigns into the existing
/// element. Native probe sites (jit/Runtime.h) rely on this and keep a
/// pointer to the value they read.
class SignalTable {
public:
  SignalTable() : L(std::make_shared<Layout>()) {}

  /// Creates a signal carrying \p Ty with initial value \p Init.
  /// Build phase only (before freeze()).
  SignalId create(Type *Ty, RtValue Init, std::string Name);

  unsigned size() const { return static_cast<unsigned>(L->Ty.size()); }

  /// Canonical id under `con` aliasing: the signal that owns the storage
  /// this one reads and writes. Whole-signal `con` merges resolve through
  /// a union-find; element-aligned sub-signal `con` resolves through
  /// alias records (the aliased signal's storage root). After freeze()
  /// this is a single table read.
  SignalId canonical(SignalId S) const {
    if (L->Frozen)
      return L->Canon[S];
    SignalId Root = ufRoot(S);
    while (L->Aliases[Root].valid())
      Root = ufRoot(L->Aliases[Root].Sig);
    return Root;
  }

  /// Merges two signals into one electrical net (`con`). Build phase only.
  void connect(SignalId A, SignalId B);

  /// Connects two (possibly sub-)signal references into one net.
  /// Whole/whole merges through the union-find; a whole signal and an
  /// element-aligned sub-signal (element path or element range, no bit
  /// slice) connect by recording an alias: the whole signal becomes a
  /// view of the sub-reference's storage. Returns false for the shapes
  /// that stay unsupported (two proper sub-signals, bit-sliced refs).
  /// Build phase only.
  bool connectRefs(const SigRef &A, const SigRef &B);

  /// Finalises the layout: fully compresses the union-find (lookups
  /// become pure reads), precomputes the canonical and word-lane maps,
  /// and snapshots the current values as the initial values shared by
  /// every run. Idempotent; called once by elaborate().
  void freeze();
  bool frozen() const { return L->Frozen; }

  /// The canonical id of \p S when a drive of the whole of S may take the
  /// scheduler's word lane: S is not a view into another signal's
  /// storage (its union-find root has no alias record), and its storage
  /// holds a two-state integer of at most 64 bits and is not
  /// logic-typed. InvalidSignal otherwise, and before freeze().
  SignalId wordCanon(SignalId S) const {
    return L->Frozen ? L->WordCanon[S] : InvalidSignal;
  }

  /// A fresh per-run view of a frozen table: shares the layout, values
  /// reset to the elaboration-time initial values, no driver slots.
  /// (Copying a frozen table also shares the layout, but carries the
  /// source's current values.)
  SignalTable makeRun() const;

  /// Resolves \p Ref through `con` merges and alias records to a
  /// reference into its storage root.
  SigRef resolve(const SigRef &Ref) const;

  /// Current (resolved) value of a sub-signal.
  RtValue read(const SigRef &Ref) const;
  /// Whole current value of a signal.
  const RtValue &value(SignalId S) const { return Values[canonical(S)]; }

  /// Applies a driver's new value. Returns true if the resolved signal
  /// value changed. \p Driver identifies the driving statement instance
  /// for multi-driver resolution on nine-valued signals.
  bool write(const SigRef &Ref, const RtValue &V, uint64_t Driver);
  /// Applies a word-lane update to \p Canon, a wordCanon() target:
  /// compares and assigns the stored integer's word in place. \p W is
  /// already masked to the signal's width. Returns true if the value
  /// changed.
  bool writeWord(SignalId Canon, uint64_t W) {
    uint64_t &Old = Values[Canon].inlineWord();
    if (Old == W)
      return false;
    Old = W;
    return true;
  }

  const std::string &name(SignalId S) const { return L->Name[S]; }
  Type *type(SignalId S) const { return L->Ty[S]; }

  //===--------------------------------------------------------------------===//
  // Raw state access for checkpoint/restore (sim/Checkpoint.cpp). These
  // bypass resolution/aliasing and address canonical ids directly; the
  // table layout itself (types, names, aliases) is reproduced by
  // re-elaboration, so only values and driver contributions serialize.
  //===--------------------------------------------------------------------===//

  /// Stored value of a canonical signal (no alias chasing).
  const RtValue &storedValue(SignalId Canon) const { return Values[Canon]; }
  void setStoredValue(SignalId Canon, RtValue V) {
    Values[Canon] = std::move(V);
  }
  /// Per-driver contribution slots of a canonical signal, sorted by
  /// driver id.
  const std::vector<std::pair<uint64_t, RtValue>> &
  driverSlots(SignalId Canon) const {
    return Drivers[Canon];
  }
  /// Replaces the driver slots; \p Drivers must be sorted by driver id
  /// (write() finds slots by binary search).
  void setDriverSlots(SignalId Canon,
                      std::vector<std::pair<uint64_t, RtValue>> Slots) {
    Drivers[Canon] = std::move(Slots);
  }

private:
  /// The immutable (post-freeze) part: everything N concurrent runs
  /// share. Before freeze() it is uniquely owned and mutated through
  /// bld(); freeze() drops the mutable handle.
  struct Layout {
    std::vector<Type *> Ty;
    std::vector<std::string> Name;
    /// Union-find parents under whole-signal `con`; fully compressed at
    /// freeze() so lookups never write.
    std::vector<SignalId> Parents;
    /// Element-aligned `con` alias records, indexed by union-find root:
    /// an entry with valid() set makes that signal a view of another
    /// signal's storage. Invalid (the default) means "owns its storage".
    std::vector<SigRef> Aliases;
    /// Set by freeze(); the maps below are valid once it is.
    bool Frozen = false;
    /// Precomputed canonical map.
    std::vector<SignalId> Canon;
    /// Precomputed wordCanon() map.
    std::vector<SignalId> WordCanon;
    /// Elaboration-time initial values (set at freeze()); the seed for
    /// every run's value vector.
    std::vector<RtValue> Init;
  };

  /// Mutable layout access during the build phase.
  Layout &bld() {
    assert(!frozen() && "signal table layout is frozen");
    return const_cast<Layout &>(*L);
  }

  /// Union-find root under whole-signal `con` merges only (no alias
  /// chasing). No path compression: pre-freeze lookups walk (the build
  /// phase is cold), post-freeze the chain is one hop by construction.
  SignalId ufRoot(SignalId S) const {
    while (L->Parents[S] != S)
      S = L->Parents[S];
    return S;
  }

  std::shared_ptr<const Layout> L;
  /// Per-run signal values, indexed by signal id (canonical entries are
  /// authoritative).
  std::vector<RtValue> Values;
  /// Per-run, per-driver contributions for resolved (logic) signals,
  /// sorted by driver id so a slot is found by binary search.
  std::vector<std::vector<std::pair<uint64_t, RtValue>>> Drivers;
};

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

/// A pending general signal update: any reference, any value.
struct SigUpdate {
  SigRef Ref;
  RtValue Val;
  uint64_t Driver;
};

/// A pending process wake-up; Gen guards against stale timers.
struct ProcWake {
  uint32_t Proc;
  uint64_t Gen;
};

/// One signal update of a time slot, in scheduling order (24 bytes).
///  - A word entry (Sig valid) drives the whole of canonical signal Sig,
///    a wordCanon() target, to Word (masked to the signal's width).
///  - A general entry (Sig == InvalidSignal) stands for the SigUpdate at
///    index Aux of the slot's side vector.
struct UpdateEntry {
  SignalId Sig;
  uint32_t Aux;
  uint64_t Word;
  uint64_t Driver;
};
static_assert(sizeof(UpdateEntry) == 24, "word-lane entries stay 24 bytes");

/// The events of one time slot. Entries hold every signal update in
/// scheduling order, whatever its lane; applying them front to back is
/// what makes equal-time updates last-write-wins.
struct SlotEvents {
  std::vector<UpdateEntry> Entries;
  /// Payloads of the general entries: the first NumGeneral. The rest are
  /// spent payloads, kept so that filing a new one reuses their buffers.
  std::vector<SigUpdate> General;
  uint32_t NumGeneral = 0;
  std::vector<ProcWake> Wakes;

  void clear() {
    Entries.clear();
    NumGeneral = 0;
    Wakes.clear();
  }
  void swap(SlotEvents &O) {
    Entries.swap(O.Entries);
    General.swap(O.General);
    std::swap(NumGeneral, O.NumGeneral);
    Wakes.swap(O.Wakes);
  }
};

/// The (time, delta, epsilon) event wheel.
///
/// Two lanes share a pooled slot arena:
///  - the fast lane is a small sorted vector of slots at (or before) the
///    head physical instant — the delta/epsilon traffic that dominates a
///    simulation stays here and never touches the heap;
///  - the heap lane is a binary min-heap of future physical instants.
/// Every distinct Time owns exactly one slot, so events at equal times
/// are applied in scheduling order (engines rely on this for trace
/// determinism) — across the word and general update kinds too, since
/// both append to the slot's one entry list.
class Scheduler {
public:
  /// Files a general update. Producers count it with countScheduled();
  /// checkpoint restore replays through here without counting.
  void scheduleUpdate(Time T, SigUpdate U) { general(T) = std::move(U); }
  /// The same, assigned into a spent payload: an array value reuses its
  /// element buffer, so a steady stream of such drives allocates nothing.
  void scheduleUpdate(Time T, const SigRef &Ref, const RtValue &Val,
                      uint64_t Driver) {
    SigUpdate &U = general(T);
    U.Ref = Ref;
    U.Val = Val;
    U.Driver = Driver;
  }
  /// Files a word-lane update: \p Driver drives the whole of \p Canon,
  /// a wordCanon() target, to \p Word (masked to its width). Counted in
  /// wordScheduled(); producers still count it with countScheduled().
  void scheduleWord(Time T, SignalId Canon, uint64_t Word, uint64_t Driver) {
    slotForCached(T).Entries.push_back({Canon, 0, Word, Driver});
    ++WordScheduled;
  }
  void scheduleWake(Time T, ProcWake W) {
    slotForCached(T).Wakes.push_back(W);
  }

  bool empty() const { return Fast.empty() && Heap.empty(); }

  Time nextTime() const {
    if (Heap.empty())
      return Fast.front().T;
    if (Fast.empty())
      return Heap.front().T;
    return std::min(Fast.front().T, Heap.front().T);
  }

  /// Pops the earliest time slot into \p Out (cleared first, then
  /// swapped with the slot's buffers; capacity circulates between the
  /// caller and the slot pool).
  void pop(SlotEvents &Out);

  /// Event count statistics.
  uint64_t totalScheduled() const { return Scheduled; }
  void countScheduled(uint64_t N) { Scheduled += N; }
  /// Restores the lifetime event counter from a checkpoint.
  void setTotalScheduled(uint64_t N) { Scheduled = N; }
  /// Word-lane updates scheduled by this wheel (not checkpointed).
  uint64_t wordScheduled() const { return WordScheduled; }

  /// A copied-out pending time slot, for checkpointing. Restore replays
  /// slots through scheduleUpdate/scheduleWake in ascending time order,
  /// which reproduces intra-slot scheduling order exactly.
  struct PendingSlot {
    Time T;
    std::vector<SigUpdate> Updates;
    std::vector<ProcWake> Wakes;
  };
  /// Snapshots both lanes, sorted ascending by time. Word entries expand
  /// into whole-signal SigUpdates (\p Signals supplies their widths), so
  /// a snapshot reads as if every update had taken the general lane.
  std::vector<PendingSlot> pendingSlots(const SignalTable &Signals) const;

private:
  struct Ref {
    Time T;
    uint32_t Idx; ///< Arena slot.
  };
  struct HeapOrder { // std::*_heap builds a max-heap; invert for a min-heap.
    bool operator()(const Ref &A, const Ref &B) const { return B.T < A.T; }
  };

  /// Events arrive in same-time bursts (one process/entity activation
  /// schedules several drives at one target), so a one-entry memo skips
  /// the lane lookup for everything but the first event of a burst.
  SlotEvents &slotForCached(Time T) {
    if (MemoValid && MemoT == T)
      return Arena[MemoIdx];
    SlotEvents &S = slotFor(T);
    MemoT = T;
    MemoIdx = static_cast<uint32_t>(&S - Arena.data());
    MemoValid = true;
    return S;
  }

  /// Files a general entry at \p T and returns its payload to fill in:
  /// a spent one when the slot keeps one, else a fresh one.
  SigUpdate &general(Time T) {
    SlotEvents &S = slotForCached(T);
    S.Entries.push_back({InvalidSignal, S.NumGeneral, 0, 0});
    if (S.NumGeneral == S.General.size())
      S.General.emplace_back();
    return S.General[S.NumGeneral++];
  }

  SlotEvents &slotFor(Time T);
  uint32_t allocSlot();
  void recycle(uint32_t Idx, SlotEvents &Out);

  /// Fast lane: slots with T.Fs <= HeadFs, sorted ascending by time.
  /// Holds the current instant's delta/epsilon slots — almost always one
  /// or two entries.
  std::vector<Ref> Fast;
  /// Heap lane: min-heap of slots with T.Fs > HeadFs. Equal-time events
  /// merge into one slot (scheduling order is preserved within a time);
  /// the merge lookup is a linear scan — the pending-future-time count is
  /// a handful in practice, and scanning keeps scheduling allocation-free
  /// where a node-based index would allocate per distinct time.
  std::vector<Ref> Heap;
  /// The physical instant the fast lane is anchored to.
  uint64_t HeadFs = 0;

  std::vector<SlotEvents> Arena;
  std::vector<uint32_t> FreeSlots;
  /// One-entry schedule memo; invalidated on every pop.
  Time MemoT;
  uint32_t MemoIdx = 0;
  bool MemoValid = false;
  uint64_t Scheduled = 0;
  uint64_t WordScheduled = 0;
};

/// Commits one popped entry of \p Ev: a word entry through writeWord(),
/// a general one through write(). Returns the canonical id of the
/// signal when its value changed, InvalidSignal otherwise.
inline SignalId commitUpdate(SignalTable &Signals, const SlotEvents &Ev,
                             const UpdateEntry &E) {
  if (E.Sig != InvalidSignal)
    return Signals.writeWord(E.Sig, E.Word) ? E.Sig : InvalidSignal;
  const SigUpdate &U = Ev.General[E.Aux];
  if (!Signals.write(U.Ref, U.Val, U.Driver))
    return InvalidSignal;
  return Signals.canonical(U.Ref.Sig);
}

/// Delay semantics of `drv`: a zero-time drive lands on the next delta.
inline Time driveTarget(Time Now, Time Span) {
  if (Span.isZero())
    return Now.advance(Time::delta());
  return Now.advance(Span);
}

//===----------------------------------------------------------------------===//
// WakeIndex
//===----------------------------------------------------------------------===//

/// Dense dynamic sensitivity: canonical signal -> processes currently
/// waiting on it. Engines re-register a process's sensitivity each time
/// it suspends; entries are invalidated lazily through the process wake
/// generation (an entry is live iff its recorded generation still equals
/// the process's current one), so waking a process never has to walk the
/// signals it was watching. Computing the wake set of a changed signal
/// is O(watchers of that signal) instead of O(processes).
class WakeIndex {
public:
  void resize(unsigned NumSignals) { Watchers.resize(NumSignals); }

  /// Registers \p Proc (whose current wake generation is \p Gen) as
  /// watching each canonical signal in \p Sens. A process re-waiting on
  /// a signal reuses its existing entry, so the index holds at most one
  /// entry per (signal, process) pair.
  void watch(uint32_t Proc, uint64_t Gen,
             const std::vector<SignalId> &Sens) {
    for (SignalId S : Sens) {
      std::vector<Entry> &Es = Watchers[S];
      auto It = std::find_if(Es.begin(), Es.end(), [Proc](const Entry &E) {
        return E.Proc == Proc;
      });
      if (It != Es.end())
        It->Gen = Gen;
      else
        Es.push_back({Proc, Gen});
    }
  }

  /// Appends to \p Out every process with a live registration on \p S;
  /// stale entries are compacted away in passing. \p CurGen maps a
  /// process index to its current wake generation.
  template <typename GenFn>
  void collect(SignalId S, GenFn &&CurGen, std::vector<uint32_t> &Out) {
    std::vector<Entry> &Es = Watchers[S];
    size_t Keep = 0;
    for (size_t I = 0; I != Es.size(); ++I) {
      if (CurGen(Es[I].Proc) != Es[I].Gen)
        continue; // Stale: the process ran since registering.
      Out.push_back(Es[I].Proc);
      Es[Keep++] = Es[I];
    }
    Es.resize(Keep);
  }

private:
  struct Entry {
    uint32_t Proc;
    uint64_t Gen;
  };
  std::vector<std::vector<Entry>> Watchers;
};

//===----------------------------------------------------------------------===//
// Trace
//===----------------------------------------------------------------------===//

/// Signal-change trace. In Hash mode only a running digest is kept (for
/// large runs); Full mode records every change for diffing and VCD dumps.
class Trace {
public:
  enum class Mode { Off, Hash, Full };

  explicit Trace(Mode M = Mode::Hash) : TheMode(M) {}

  Mode mode() const { return TheMode; }

  /// Folds one change into the digest: FNV-1a over the time, the
  /// signal and the bytes of V.toString().
  void record(Time T, SignalId S, const RtValue &V) {
    if (TheMode == Mode::Off)
      return;
    ++NumChanges;
    mix(T.Fs);
    mix(T.Delta);
    mix(S);
    if (TheMode == Mode::Hash && V.isInt() && V.intValue().fitsU64()) {
      // The decimal digits toString() would produce, without building
      // the string: hashing stays allocation-free for any width.
      char Buf[20];
      char *P = Buf + sizeof(Buf);
      uint64_t X = V.intValue().zextToU64();
      do {
        *--P = static_cast<char>('0' + X % 10);
        X /= 10;
      } while (X);
      for (; P != Buf + sizeof(Buf); ++P)
        mix(static_cast<unsigned char>(*P));
      return;
    }
    std::string Val = V.toString();
    for (char C : Val)
      mix(static_cast<unsigned char>(C));
    if (TheMode == Mode::Full)
      Changes.push_back({T, S, std::move(Val)});
  }

  uint64_t digest() const { return Digest; }
  uint64_t numChanges() const { return NumChanges; }

  /// Restores the running digest/counter from a checkpoint so a resumed
  /// run's final digest equals an uninterrupted run's. Full-mode change
  /// lists do not survive a checkpoint (only the digest does).
  void restoreState(uint64_t D, uint64_t N) {
    Digest = D;
    NumChanges = N;
  }

  struct Change {
    Time T;
    SignalId Sig;
    std::string Val;
  };
  const std::vector<Change> &changes() const { return Changes; }

  /// Renders a VCD-like textual dump (Full mode only).
  std::string dump(const SignalTable &Signals) const;

private:
  void mix(uint64_t X) {
    Digest ^= X;
    Digest *= 1099511628211ull;
  }

  Mode TheMode;
  uint64_t Digest = 1469598103934665603ull;
  uint64_t NumChanges = 0;
  std::vector<Change> Changes;
};

} // namespace llhd

#endif // LLHD_SIM_KERNEL_H
