//===- Cli.h - Table-driven command-line parsing ----------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One flag table per tool, one parser and one usage renderer for all of
/// them: kisscheck and kissfuzz declare their flags against this API, so
/// the shared flags (--jobs, --timeout, --memory-budget, --report,
/// --zero-timings, --max-switches) parse and print identically, and usage
/// text is generated from the same table that drives parsing — the two
/// cannot drift apart.
///
/// Also home of the repo-wide exit-code contract (docs/robustness.md):
/// 0 = no error found, 1 = error found, 2 = usage/compile/IO problem,
/// 3 = bound exceeded or interrupted.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SUPPORT_CLI_H
#define KISS_SUPPORT_CLI_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace kiss::cli {

/// The repo-wide exit-code contract.
enum ExitCode : int {
  ExitNoError = 0,       ///< Checked everything in budget; nothing found.
  ExitErrorFound = 1,    ///< An error/violation/mismatch was found.
  ExitUsage = 2,         ///< Usage, compile, or I/O problem.
  ExitBoundExceeded = 3, ///< A resource bound tripped or the run was
                         ///< interrupted; result inconclusive.
};

/// The one shared mapping from a run's summary to its exit code:
/// inconclusive dominates (a partially-run campaign is not a clean pass),
/// then found-error, then success.
int exitCode(bool FoundError, bool BoundExceededOrInterrupted);

/// A table-driven argument parser. Flags are matched as `--name=<value>`
/// (value flags) or bare `--name` (presence flags); anything else that
/// starts with '-' is an unknown-option error; at most one positional
/// argument is accepted when declared. `-h`/`--help` make parse() return
/// false with no error message, so callers print usage and exit 2.
class ArgParser {
public:
  /// \p Header is the first usage line, e.g.
  /// "usage: kisscheck [options] <file.kiss>".
  explicit ArgParser(std::string Header);

  /// Value flags; \p Arg is the metavar shown in usage ("<n>", "<path>").
  void flag(const char *Name, unsigned &Target, const char *Arg,
            const char *Help);
  void flag(const char *Name, uint64_t &Target, const char *Arg,
            const char *Help);
  void flag(const char *Name, std::string &Target, const char *Arg,
            const char *Help);
  /// Doubles must parse, be finite and be strictly positive.
  void flagPositive(const char *Name, double &Target, const char *Arg,
                    const char *Help);
  /// Unsigned variants that reject 0.
  void flagPositive(const char *Name, unsigned &Target, const char *Arg,
                    const char *Help);
  void flagPositive(const char *Name, uint64_t &Target, const char *Arg,
                    const char *Help);
  /// Presence flag: `--name` sets \p Target to true.
  void flag(const char *Name, bool &Target, const char *Help);
  /// Full-control flag. \p Parse gets the text after '=' ("" when the flag
  /// appears bare, allowed only with \p ValueOptional) and reports errors
  /// through its return value/\p Error out-parameter.
  void custom(const char *Name, const char *Arg, const char *Help,
              std::function<bool(const std::string &Value,
                                 std::string &Error)> Parse,
              bool ValueOptional = false);

  /// Declares the (single) positional argument.
  void positional(std::string &Target);
  /// Extra usage text after the flag list (the exit-code blurb).
  void footer(std::string Text);

  /// Parses the command line. On error, prints the offending message to
  /// stderr; callers should print usage() and exit ExitUsage when this
  /// returns false.
  bool parse(int Argc, char **Argv);

  /// The generated usage text: header, one aligned line per flag in
  /// declaration order, footer.
  std::string usage() const;

private:
  struct Spec {
    std::string Name; ///< Without leading dashes.
    std::string Arg;  ///< Metavar; empty for presence flags.
    std::string Help;
    bool ValueOptional = false;
    std::function<bool(const std::string &, std::string &)> Parse;
  };

  void add(const char *Name, const char *Arg, const char *Help,
           std::function<bool(const std::string &, std::string &)> Parse,
           bool ValueOptional = false);

  std::string Header;
  std::string Footer;
  std::vector<Spec> Specs;
  std::string *Positional = nullptr;
};

} // namespace kiss::cli

#endif // KISS_SUPPORT_CLI_H
