//===- sim/Design.h - Design elaboration ------------------------*- C++ -*-===//
//
// Elaboration: expands the `inst` hierarchy of a top unit into a flat
// list of timed unit instances (processes and entities) bound to
// elaborated signals. All engines simulate the same elaborated Design.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SIM_DESIGN_H
#define LLHD_SIM_DESIGN_H

#include "ir/Module.h"
#include "sim/Kernel.h"

#include <map>
#include <string>
#include <vector>

namespace llhd {

/// One elaborated process or entity instance.
struct UnitInstance {
  Unit *U = nullptr;
  std::string HierName;
  /// Signal bindings: arguments, entity-local `sig` results and
  /// elaboration-time extf/exts sub-signals. Everything else an engine
  /// needs is recomputed from the unit's lowered form (sim/Lir.h).
  std::map<const Value *, SigRef> Bindings;
};

/// A fully elaborated design: the immutable per-design layout every
/// simulation run reads and none writes.
///
/// elaborate() returns it frozen — the signal table's layout is behind a
/// shared immutable handle (SignalTable::freeze()), the instance list and
/// entity watcher index never change after construction, and the engines
/// take it by `const&`/`shared_ptr<const>`. Per-run mutable state (signal
/// values, driver slots, the event wheel, stats) lives in SimState
/// (sim/SimState.h); batch mode runs N SimStates over one Design
/// concurrently. `SimLayout` names this role at API boundaries.
struct Design {
  Module *M = nullptr;
  /// Frozen signal table: layout shared, values = initial values. Runs
  /// derive their private tables via Signals.makeRun().
  SignalTable Signals;
  std::vector<UnitInstance> Instances;
  std::string Error; ///< Non-empty if elaboration failed.

  /// Static sensitivity reverse index, built once at elaboration and
  /// shared by every engine: canonical signal -> indices of the entity
  /// instances (counting entities in Instances order) that probe it or
  /// use it as a `del` source. Computing an entity wake set is a direct
  /// lookup, O(changed signals).
  std::vector<std::vector<uint32_t>> EntityWatchers;

  bool ok() const { return Error.empty(); }
};

/// The immutable half of a simulation, by its role name.
using SimLayout = Design;

/// Elaborates \p Top (an entity or process in \p M) into a Design.
Design elaborate(Module &M, const std::string &Top);

/// Finds the unique simulatable root of \p M: a non-declaration process
/// or entity that no other unit instantiates. Returns empty and fills
/// \p Error when there is no unique candidate.
std::string findTopUnit(const Module &M, std::string &Error);

} // namespace llhd

#endif // LLHD_SIM_DESIGN_H
