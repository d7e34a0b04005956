//===- sim/Wave.h - VCD waveform observer -----------------------*- C++ -*-===//
//
// Waveform tracing for the simulation engines: a WaveWriter observes the
// kernel's signal-commit path (the same per-change hook the equivalence
// Trace uses, fed from the shared event loop so Interp and Blaze both
// produce it identically) and renders a standard IEEE 1364 VCD dump.
//
// Hierarchical $scope sections are reconstructed from the elaborated
// instance paths ("top/inst/sig"), identifier codes are allocated in
// canonical signal-id order (printable base-94), and dumping is
// change-only: changes are buffered per physical instant and a signal is
// re-dumped only when its final value at that instant differs from the
// last value written. Because every engine commits the same resolved
// values in the same order, the emitted VCD text is byte-identical across
// engines — the CI smoke job and tests/sim/WaveTest.cpp assert this.
//
// Two lanes carry the changes. A variable whose stored value is a
// two-state integer of at most 64 bits (the word lane, which carries
// nearly every change in practice) keeps its pending and last-dumped
// values as words: a change is a word store, and a line is rendered only
// when the settled word differs from the last dumped one. Logic-typed and
// wider variables keep their pending and last lines as rendered text.
//
// The observer is opt-in through SimOptions::Wave; when it is null the
// simulation path pays exactly one pointer test per committed change and
// performs no allocation. When a writer streams to a sink, changes of
// word-lane variables allocate nothing either. AllocGuardTest covers
// both paths.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SIM_WAVE_H
#define LLHD_SIM_WAVE_H

#include "sim/Kernel.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace llhd {

/// Appends the value-change line of the two-state value \p Word of
/// \p Width bits (1..64) for identifier \p Code, newline included: the
/// scalar form "1!" for one bit, otherwise "b" + the binary spelling
/// with leading zeros trimmed (at least one digit) + " " + Code. \p Code
/// is at most WaveWriter::MaxCodeLen characters. The word lane's
/// renderer.
void appendVcdWord(std::string &Out, uint64_t Word, unsigned Width,
                   std::string_view Code);

/// Streams a simulation run into VCD text.
///
/// Lifecycle: begin(signals) emits the header, variable definitions and
/// the $dumpvars initial state; onChange() is called by the event loop
/// for every committed signal change; finish() flushes the final pending
/// instant. The accumulated text is available via text() or writeToFile().
class WaveWriter {
public:
  WaveWriter() = default;

  /// RAII: destruction flushes the pending instant and the sink, so every
  /// exit path — assert failures, watchdog stops, signal-triggered
  /// shutdown — leaves a well-formed, loadable VCD behind. A streamTo()
  /// sink must outlive the writer.
  ~WaveWriter() { finish(); }
  WaveWriter(const WaveWriter &) = delete;
  WaveWriter &operator=(const WaveWriter &) = delete;

  /// Emits the VCD header for \p Signals: scope tree, $var definitions
  /// and the $dumpvars initial state at #0. Must be called exactly once,
  /// before any onChange().
  void begin(const SignalTable &Signals);

  /// Prepares for appending to an existing dump after a checkpoint
  /// restore: allocates the same identifier codes begin() would (the
  /// allocation is deterministic in canonical-signal order) and seeds the
  /// change-only cache from \p Signals' restored values — the settled
  /// state at the checkpoint instant, which is exactly what the original
  /// writer had last dumped. Emits nothing; subsequent onChange() output
  /// continues the original file byte-identically.
  void resume(const SignalTable &Signals);

  /// Records a committed change of canonical signal \p S to \p V at time
  /// \p T. Changes are buffered until the physical instant advances, so
  /// delta-cycle glitches that settle back to the previous value produce
  /// no output (change-only semantics). On the word lane this is a word
  /// store; lines are rendered when the instant is flushed.
  void onChange(Time T, SignalId S, const RtValue &V);

  /// Flushes the last pending instant. Call after the run completes.
  /// Idempotent; also invoked by the destructor.
  void finish();

  /// Flushes the pending (settled) instant and the sink immediately, for
  /// checkpoint boundaries: the bytes are the ones the next onChange()
  /// would have triggered anyway, so the dump stays byte-identical —
  /// but they are on disk before the checkpoint is.
  void flushNow();

  /// Streams the dump into \p OS instead of accumulating it: emitted
  /// text is forwarded and dropped from memory at every instant flush,
  /// so an unbounded run holds at most one instant's worth of pending
  /// state. Set before begin(). text() is empty in this mode — callers
  /// that byte-compare dumps (--diff-engines, the tests) must not set a
  /// sink.
  void streamTo(std::ostream &OS) { Sink = &OS; }

  /// The VCD text produced so far (finish() first for a complete dump).
  /// Only meaningful without a streamTo() sink.
  const std::string &text() const { return Out; }

  /// Writes text() to \p Path; returns false on I/O failure.
  bool writeToFile(const std::string &Path) const;

  /// Number of signals that got a $var definition.
  unsigned numVars() const { return NumVars; }
  /// Number of value-change lines emitted after $dumpvars.
  uint64_t numDumpedChanges() const { return DumpedChanges; }
  /// Number of VCD bytes produced so far, streamed or held.
  uint64_t numBytes() const { return Drained + Out.size(); }

  /// Identifier codes are at most this long (base-94 of a 32-bit index).
  static constexpr unsigned MaxCodeLen = 5;

private:
  void declareVars(const SignalTable &Signals);
  void appendLast(SignalId S);
  void flushPending();
  void drain();

  enum class Lane : uint8_t {
    None, ///< No $var: an alias, or a payload VCD cannot represent.
    Word, ///< Two-state integer of at most 64 bits, kept as words.
    Text, ///< Logic-typed or wider: kept as rendered lines.
  };

  /// Per-signal dump state, indexed by signal id.
  struct Var {
    uint64_t Pending = 0; ///< Word lane: latest value this instant.
    uint64_t Last = 0;    ///< Word lane: last dumped value.
    uint32_t Width = 0;   ///< Dumped width in bits.
    Lane L = Lane::None;
    bool Dirty = false; ///< Listed in Touched.
    uint8_t CodeLen = 0;
    char Code[MaxCodeLen] = {}; ///< VCD identifier code.
    std::string_view code() const { return {Code, CodeLen}; }
  };

  std::string Out;
  std::ostream *Sink = nullptr;
  std::vector<Var> Vars;
  /// Signals touched at the pending instant, each once.
  std::vector<SignalId> Touched;
  /// Text lane, indexed by signal: the pending and last dumped lines.
  std::vector<std::string> PendingText, LastText;
  uint64_t PendingFs = 0;
  unsigned NumVars = 0;
  uint64_t DumpedChanges = 0;
  uint64_t Drained = 0; ///< Bytes handed to the sink.
};

} // namespace llhd

#endif // LLHD_SIM_WAVE_H
