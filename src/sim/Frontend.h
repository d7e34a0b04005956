//===- sim/Frontend.h - Command-line design input ---------------*- C++ -*-===//
//
// The input path of the command-line tools (llhd-sim, llhd-lint): read a
// design from a file or stdin, take it as LLHD assembly or SystemVerilog,
// and build fresh modules from it through the assembly parser or the
// Moore frontend, finding the top unit when none was given, verify them
// (ir/Verifier.h), then elaborate. Failures are printed to stderr as
// "<tool>: <message>".
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SIM_FRONTEND_H
#define LLHD_SIM_FRONTEND_H

#include "sim/Design.h"

#include <memory>
#include <string>

namespace llhd {

/// A freshly built and elaborated module.
struct Elaborated {
  std::unique_ptr<Module> M;
  std::string Top;
  Design D;
};

/// A design source and how to build fresh modules from it: every engine
/// run and every inspection gets its own module, so the optimising
/// engines can never contaminate a comparison run.
struct DesignSource {
  enum class Language { ByExtension, Llhd, Sv };

  const char *Tool; ///< Prefix of printed errors.
  std::string File; ///< Path, or "-" for stdin.
  std::string Src;
  /// --top; for SystemVerilog, detected at the first build when empty.
  std::string Top;
  /// By extension, .sv and .v are SystemVerilog, everything else (stdin
  /// included) LLHD assembly; read() settles it.
  Language Lang = Language::ByExtension;
  Context Ctx;

  explicit DesignSource(const char *Tool) : Tool(Tool) {}

  /// Reads File into Src; false (error printed) when it cannot be opened.
  bool read();

  /// Builds and verifies a module named \p Name; \p UnitTop receives the
  /// unit to simulate. On a frontend or verifier error, prints it unless
  /// \p Quiet and returns null.
  std::unique_ptr<Module> build(const std::string &Name, std::string &UnitTop,
                                bool Quiet = false);

  /// build() plus elaboration into \p E; false (error printed unless
  /// \p Quiet) on failure.
  bool elaborate(const std::string &Name, Elaborated &E, bool Quiet = false);
};

} // namespace llhd

#endif // LLHD_SIM_FRONTEND_H
