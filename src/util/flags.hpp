// Declarative command-line flags for every front-end.
//
// A FlagSet is a table of flags. parse() walks the whole command line once:
// `--x v` and `--x=v` are the same, a missing value, an unknown flag and a
// value the flag rejects are usage errors, and everything that is not a flag
// is a positional, kept in order (flags may come before or after them). The
// usage text is generated from the table, so it cannot drift from what the
// parser accepts.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace mrl::util {

/// One flag: a switch (`--name`) or a valued flag (`--name VALUE`).
struct Flag {
  std::string name;         ///< e.g. "--full"
  std::string placeholder;  ///< value name in the usage ("N"); empty = switch
  std::string help;         ///< one usage line
  /// Applies the value ("" for a switch). Returns "" on success, otherwise
  /// the diagnostic, which parse() prints as "prog: <diagnostic>".
  std::function<std::string(const std::string& value)> apply;
};

class FlagSet {
 public:
  /// `synopsis` follows "[flags]" on the usage line; `epilog` is printed
  /// after the flag list.
  explicit FlagSet(std::string synopsis = "", std::string epilog = "");

  /// Registers `f`; a name may be registered once.
  void add(Flag f);

  /// Applies every flag of argv[1..argc) in order and returns the
  /// positionals in order. `--help`/`-h` prints the usage to stdout and
  /// exits 0; an error prints "prog: <diagnostic>" and the usage to stderr
  /// and exits 2. Neither exit runs the atexit handlers, so a usage error
  /// or --help writes no observer output.
  std::vector<std::string> parse(int argc, char** argv);

  /// Reports a usage error found after parse() (a bad positional, a
  /// contradiction between flags) the same way parse() reports its own.
  [[noreturn]] void fail(const std::string& diagnostic) const;

  void usage(std::FILE* out) const;

 private:
  std::string prog_ = "prog";
  std::string synopsis_;
  std::string epilog_;
  std::vector<Flag> flags_;
};

// Builders for the common value kinds; each rejects what it cannot use.

Flag switch_flag(std::string name, std::string help, std::function<void()> set);

/// `--name N` with N an integer in [`min`, INT_MAX]; a larger value is a
/// usage error, never narrowed.
Flag int_flag(std::string name, std::string help, int min,
              std::function<void(int)> set);

/// `--name <placeholder>` with a finite number >= `min`.
Flag real_flag(std::string name, std::string placeholder, std::string help,
               double min, std::function<void(double)> set);

/// `--name PATH`; an empty path is rejected.
Flag path_flag(std::string name, std::string help,
               std::function<void(const std::string&)> set);

/// `--name <placeholder>` with one of `choices`.
Flag choice_flag(std::string name, std::string placeholder, std::string help,
                 std::vector<std::string> choices,
                 std::function<void(const std::string&)> set);

}  // namespace mrl::util
