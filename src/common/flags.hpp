#pragma once

/// \file flags.hpp
/// \brief The command-line parser shared by every bench and tool binary.
///
/// A binary registers each flag with a name, a typed target and a help
/// string; whatever the target holds before parsing is the default. Flags
/// are spelled `--name=value`. A bool flag may also be bare (`--real`),
/// otherwise it takes `=0` or `=1`. Numbers must parse completely and fit
/// their target: no sign on an unsigned flag, no trailing text, no
/// overflow. `--help` prints usage generated from the registrations.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace dsi::common {

class Flags {
 public:
  using Target = std::variant<bool*, int*, uint32_t*, uint64_t*, double*,
                              std::string*>;

  void Add(std::string name, Target target, std::string help);

  /// Parses argv[1..] into the targets, stopping at `--help` (help()).
  /// Returns false, with *error naming the offending argument, on an
  /// unknown flag or a malformed value.
  bool TryParse(int argc, const char* const* argv, std::string* error);

  /// TryParse for main(): `--help` prints usage to stdout and exits 0; an
  /// error prints the argument and usage to stderr and exits \p usage_exit.
  void Parse(int argc, const char* const* argv, int usage_exit = 2);

  /// True iff \p name was given on the command line.
  bool Seen(const std::string& name) const;
  bool help() const { return help_; }
  std::string Usage() const;

 private:
  struct Flag {
    std::string name;
    Target target;
    std::string help;  // ends with the default, when it has one
    bool seen = false;
  };
  std::string program_;
  std::vector<Flag> flags_;
  bool help_ = false;
};

}  // namespace dsi::common
