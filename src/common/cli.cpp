#include "common/cli.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/specparse.hpp"

namespace laacad::cli {

namespace {

/// Where the help column starts; a longer flag puts its help on the next
/// line.
constexpr std::size_t kHelpColumn = 24;

bool is_flag(const std::string& arg) {
  return arg.size() > 1 && arg[0] == '-' && (arg[1] < '0' || arg[1] > '9');
}

std::string help_line(const std::string& left, const std::string& help) {
  const std::string lead = "  " + left;
  return lead.size() + 2 > kHelpColumn
             ? lead + "\n" + std::string(kHelpColumn, ' ') + help + "\n"
             : lead + std::string(kHelpColumn - lead.size(), ' ') + help +
                   "\n";
}

}  // namespace

Parser::Parser(std::string tool) : tool_(std::move(tool)) {}

Parser& Parser::positional(std::string metavar, bool required,
                           Callback apply) {
  positionals_.push_back({std::move(metavar), required, std::move(apply)});
  return *this;
}

Parser& Parser::positional(std::string metavar, bool required,
                           std::string* target) {
  return positional(std::move(metavar), required,
                    [target](const std::string& value) { *target = value; });
}

Parser& Parser::flag(std::string name, std::string help, bool* target) {
  return add(std::move(name), "", std::move(help),
             [target](const std::string&) { *target = true; },
             /*typed=*/false);
}

Parser& Parser::flag(std::string name, std::string help, Callback apply) {
  return add(std::move(name), "", std::move(help), std::move(apply),
             /*typed=*/false);
}

Parser& Parser::flag(std::string name, std::string metavar, std::string help,
                     Callback apply) {
  return add(std::move(name), std::move(metavar), std::move(help),
             std::move(apply), /*typed=*/false);
}

Parser& Parser::add(std::string name, std::string metavar, std::string help,
                    Callback apply, bool typed) {
  flags_.push_back({std::move(name), std::move(metavar), std::move(help),
                    std::move(apply), typed});
  return *this;
}

std::optional<int> Parser::parse(int argc, const char* const* argv,
                                 std::ostream& out, std::ostream& err) const {
  // Runs one callback; an exception it throws becomes the exit-2 message
  // "<tool>: <prefix><message>".
  const auto run = [&](const Callback& apply, const std::string& value,
                       const std::string& prefix) {
    try {
      apply(value);
      return true;
    } catch (const std::exception& e) {
      err << tool_ << ": " << prefix << specparse::without_line(e.what())
          << "\n";
      return false;
    }
  };
  std::size_t next_positional = 0;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--help" || arg == "-h") {
      out << usage();
      return 0;
    }
    if (!is_flag(arg)) {
      if (next_positional == positionals_.size()) {
        err << usage();
        return 2;
      }
      if (!run(positionals_[next_positional++].apply, arg, "")) return 2;
      continue;
    }
    const auto it = std::find_if(flags_.begin(), flags_.end(),
                                 [&](const Flag& f) { return f.name == arg; });
    if (it == flags_.end()) {
      err << tool_ << ": unknown flag " << arg << "\n" << usage();
      return 2;
    }
    std::string value;
    if (!it->metavar.empty()) {
      if (a + 1 >= argc) {
        err << tool_ << ": " << arg << " needs a value\n";
        return 2;
      }
      value = argv[++a];
    }
    if (!run(it->apply, value, it->typed ? "" : arg + ": ")) return 2;
  }
  for (std::size_t p = next_positional; p < positionals_.size(); ++p) {
    if (positionals_[p].required) {
      err << usage();
      return 2;
    }
  }
  return std::nullopt;
}

std::string Parser::usage() const {
  std::string text = "usage: " + tool_;
  for (const Positional& p : positionals_)
    text += p.required ? " <" + p.metavar + ">" : " [" + p.metavar + "]";
  text += " [options]\n";
  for (const Flag& f : flags_)
    text += help_line(f.metavar.empty() ? f.name : f.name + " " + f.metavar,
                      f.help);
  return text + help_line("-h, --help", "print this help and exit");
}

}  // namespace laacad::cli
