//===- sim/RunControl.h - Watchdogs, budgets, and stop control --*- C++ -*-===//
//
// The run-control surface shared by both engines: cooperative stop
// flags (signal handlers set one, the event loop polls it), wall-clock
// and event/delta budgets, periodic checkpoint triggers, and the process
// exit-code taxonomy the llhd-sim driver and CI scripts key off.
//
// Every run-control action fires only on a *physical-instant boundary* —
// the moment the event loop observes the next slot's time advancing past
// the instant it just finished. At that point all delta cycles of the
// previous instant have settled, the waveform writer's pending buffer is
// exactly one complete instant, and a checkpoint taken there resumes
// byte-identically. Nothing ever stops mid-delta.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SIM_RUNCONTROL_H
#define LLHD_SIM_RUNCONTROL_H

#include "support/Time.h"

#include <csignal>
#include <cstdint>
#include <functional>

namespace llhd {

/// Documented process exit codes for llhd-sim. 0/1/2 predate the
/// taxonomy and are kept stable for existing scripts; 64-66 follow the
/// sysexits convention; 80+ are the run-control block. Codes stay below
/// 126 so they never collide with shell/OS-reserved values.
enum class ExitCode : int {
  Ok = 0,              ///< Simulation completed normally.
  AssertFailed = 1,    ///< One or more runtime assertions failed.
  Divergence = 2,      ///< --diff-engines found engines disagreeing.
  Usage = 64,          ///< Bad command line.
  InputError = 65,     ///< Frontend failure: parse/typecheck/elaborate.
  IoError = 66,        ///< Could not read/write a file artifact.
  WallTimeout = 80,    ///< --timeout wall-clock budget exhausted.
  EventBudget = 81,    ///< --max-events budget exhausted.
  DeltaBudget = 82,    ///< --max-deltas budget exhausted.
  Oscillation = 83,    ///< Zero-delay oscillation detector fired.
  CheckpointError = 84,///< Checkpoint write/read/compatibility failure.
  Interrupted = 85,    ///< SIGINT/SIGTERM; state flushed gracefully.
  LintFindings = 86,   ///< --lint found error-severity findings.
};

/// Human-readable name for an exit code (for --help and diagnostics).
inline const char *exitCodeName(ExitCode C) {
  switch (C) {
  case ExitCode::Ok: return "ok";
  case ExitCode::AssertFailed: return "assertion failed";
  case ExitCode::Divergence: return "engine divergence";
  case ExitCode::Usage: return "usage error";
  case ExitCode::InputError: return "frontend error";
  case ExitCode::IoError: return "i/o error";
  case ExitCode::WallTimeout: return "wall-clock timeout";
  case ExitCode::EventBudget: return "event budget exhausted";
  case ExitCode::DeltaBudget: return "delta budget exhausted";
  case ExitCode::Oscillation: return "oscillation detected";
  case ExitCode::CheckpointError: return "checkpoint error";
  case ExitCode::Interrupted: return "interrupted";
  case ExitCode::LintFindings: return "lint findings";
  }
  return "unknown";
}

/// Why a run stopped. None means the queue drained or a process finished
/// normally (see SimStats::Finished); everything else is a run-control
/// action. Engines report this in SimStats.
enum class StopReason : uint8_t {
  None = 0,        ///< Ran to completion (or MaxTime; see SimStats).
  Interrupted,     ///< RunControl::StopFlag was raised (SIGINT/SIGTERM).
  WallTimeout,     ///< Wall-clock budget exhausted.
  EventBudget,     ///< Scheduled-event budget exhausted.
  DeltaBudget,     ///< Delta-cycle (time-slot) budget exhausted.
  Oscillation,     ///< Zero-delay oscillation guard tripped.
  CheckpointError, ///< The checkpoint hook reported failure.
};

inline const char *stopReasonName(StopReason R) {
  switch (R) {
  case StopReason::None: return "none";
  case StopReason::Interrupted: return "interrupted";
  case StopReason::WallTimeout: return "wall-clock timeout";
  case StopReason::EventBudget: return "event budget exhausted";
  case StopReason::DeltaBudget: return "delta budget exhausted";
  case StopReason::Oscillation: return "oscillation detected";
  case StopReason::CheckpointError: return "checkpoint error";
  }
  return "unknown";
}

/// Run-control knobs, embedded in SimOptions. All default to "off"; the
/// event loop's steady state pays only a handful of integer compares per
/// physical instant for them.
struct RunControl {
  /// Cooperative stop flag, typically set from a SIGINT/SIGTERM handler.
  /// Polled at instant boundaries; when raised, the loop finishes the
  /// current delta cycle, optionally writes a final checkpoint, lets the
  /// waveform writer terminate the VCD, and returns StopReason::Interrupted.
  const volatile std::sig_atomic_t *StopFlag = nullptr;

  /// Wall-clock budget in seconds; 0 disables. Checked at instant
  /// boundaries, so a single runaway instant is bounded by the delta
  /// guard, not this.
  double WallTimeoutSec = 0;

  /// Budget on total scheduled events (Scheduler::totalScheduled());
  /// 0 disables.
  uint64_t MaxEvents = 0;

  /// Budget on processed time slots / delta cycles (SimStats::Steps);
  /// 0 disables. Restored checkpoints carry their counters, so budgets
  /// span kill/resume cycles.
  uint64_t MaxSteps = 0;

  /// Periodic checkpoint cadence in femtoseconds; 0 disables. The hook
  /// fires at the first instant boundary at or past each multiple.
  uint64_t CheckpointEveryFs = 0;

  /// Also invoke the checkpoint hook once when stopping for any
  /// run-control reason (StopFlag, budgets, timeout).
  bool CheckpointOnStop = false;

  /// Checkpoint hook: serialize the engine state (the engine owning this
  /// options struct; capture it) and persist it. Called only at instant
  /// boundaries with the pending waveform instant already flushed. Return
  /// false to abort the run with StopReason::CheckpointError.
  std::function<bool(Time)> Checkpoint;
};

} // namespace llhd

#endif // LLHD_SIM_RUNCONTROL_H
