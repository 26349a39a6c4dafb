// One command-line grammar for every tool in examples/. A tool declares its
// name, its positional arguments and a table of flags once; parse() applies
// the same rules to all of them, and usage() is generated from the same
// table, so the help text and the parser cannot drift apart.
//
//   * A valued flag takes the next argument verbatim: "--seed -1" hands
//     "-1" to the value parser.
//   * --help / -h print the usage to stdout; exit 0.
//   * A valued flag with no argument left prints "<tool>: <flag> needs a
//     value"; exit 2.
//   * An unknown flag prints "<tool>: unknown flag <flag>", then the usage,
//     to stderr; exit 2.
//   * A typed target's bad value prints "<tool>: '<flag>' expects ...", an
//     error thrown by a callback "<tool>: <flag>: <message>", one thrown by
//     a positional's callback "<tool>: <message>"; exit 2. The specparse
//     "line 0: " prefix is dropped from each.
//   * An extra positional argument, or a missing required one, prints the
//     usage to stderr; exit 2.
//
// An argument is a flag when it starts with '-' and its second character
// is not a digit, so a negative number is a positional.
#pragma once

#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/specparse.hpp"

namespace laacad::cli {

/// Receives a flag's value ("" for a switch) or a positional argument. An
/// exception it throws ends parsing with exit status 2.
using Callback = std::function<void(const std::string&)>;

class Parser {
 public:
  explicit Parser(std::string tool);

  /// The next positional argument, shown in the usage as "<metavar>" when
  /// required and "[metavar]" when not.
  Parser& positional(std::string metavar, bool required, Callback apply);
  Parser& positional(std::string metavar, bool required, std::string* target);

  /// A switch: sets `*target` to true, or runs `apply("")`.
  Parser& flag(std::string name, std::string help, bool* target);
  Parser& flag(std::string name, std::string help, Callback apply);

  /// A valued flag whose argument goes to `apply`.
  Parser& flag(std::string name, std::string metavar, std::string help,
               Callback apply);

  /// A valued flag parsed into `*target` with specparse::parse_as:
  /// std::string, int (at least `min`), std::uint64_t or double, or a
  /// std::optional of one, which stays empty unless the flag is given.
  template <class T>
  Parser& flag(std::string name, std::string metavar, std::string help,
               T* target, int min = std::numeric_limits<int>::min()) {
    Callback apply = [name, target, min](const std::string& value) {
      using Value = decltype(held(target));
      *target = specparse::parse_as<Value>(value, 0, name, min);
    };
    return add(std::move(name), std::move(metavar), std::move(help),
               std::move(apply), /*typed=*/true);
  }

  /// Applies the grammar to argv[1..argc). Returns the exit status when
  /// the tool should stop now (0 after --help, 2 after an error, both
  /// already printed), or nothing once every argument is applied.
  std::optional<int> parse(int argc, const char* const* argv,
                           std::ostream& out = std::cout,
                           std::ostream& err = std::cerr) const;

  /// "usage: <tool> <positionals> [options]", then one line per flag.
  std::string usage() const;

 private:
  struct Flag {
    std::string name;
    std::string metavar;  ///< empty for a switch
    std::string help;
    Callback apply;
    bool typed = false;  ///< errors name the flag themselves
  };
  struct Positional {
    std::string metavar;
    bool required = false;
    Callback apply;
  };

  /// The type a typed target holds (never called).
  template <class T>
  static T held(T*);
  template <class T>
  static T held(std::optional<T>*);

  Parser& add(std::string name, std::string metavar, std::string help,
              Callback apply, bool typed);

  std::string tool_;
  std::vector<Flag> flags_;
  std::vector<Positional> positionals_;
};

}  // namespace laacad::cli
