#include "common/flags.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <type_traits>

namespace dsi::common {
namespace {

/// A string takes any text. Everything else goes through from_chars, which
/// takes no sign on unsigned types, no whitespace and no out-of-range
/// value, and must consume the whole text ("1x0" fails); a bool is 0 or 1.
template <typename T>
bool ParseValue(const std::string& text, T* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out = text;
    return true;
  } else {
    constexpr bool kBool = std::is_same_v<T, bool>;
    std::conditional_t<kBool, unsigned, T> value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || (kBool && value > 1)) return false;
    *out = static_cast<T>(value);
    return true;
  }
}

}  // namespace

void Flags::Add(std::string name, Target target, std::string help) {
  if (!std::holds_alternative<bool*>(target)) {
    std::ostringstream value;
    std::visit([&](auto* t) { value << *t; }, target);
    if (!value.str().empty()) help += "; default " + value.str();
  }
  flags_.push_back(Flag{std::move(name), target, std::move(help)});
}

bool Flags::TryParse(int argc, const char* const* argv, std::string* error) {
  program_ = argc > 0 ? argv[0] : "";
  program_.erase(0, program_.rfind('/') + 1);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      help_ = true;
      return true;
    }
    const size_t eq = arg.find('=');
    const auto flag = std::find_if(flags_.begin(), flags_.end(), [&](auto& f) {
      return arg.compare(0, eq, "--" + f.name) == 0;
    });
    if (flag == flags_.end()) {
      *error = "unknown flag " + arg;
      return false;
    }
    // Only a bool may be bare, which switches it on.
    const bool bare = eq == std::string::npos;
    const std::string value = bare ? "1" : arg.substr(eq + 1);
    if ((bare && !std::holds_alternative<bool*>(flag->target)) ||
        !std::visit([&](auto* t) { return ParseValue(value, t); },
                    flag->target)) {
      *error = "malformed value in " + arg;
      return false;
    }
    flag->seen = true;
  }
  return true;
}

void Flags::Parse(int argc, const char* const* argv, int usage_exit) {
  std::string error;
  if (!TryParse(argc, argv, &error)) {
    std::fprintf(stderr, "%s: %s\n\n%s", program_.c_str(), error.c_str(),
                 Usage().c_str());
    std::exit(usage_exit);
  }
  if (help_) {
    std::fputs(Usage().c_str(), stdout);
    std::exit(0);
  }
}

bool Flags::Seen(const std::string& name) const {
  return std::any_of(flags_.begin(), flags_.end(), [&](const Flag& f) {
    return f.seen && f.name == name;
  });
}

std::string Flags::Usage() const {
  size_t width = 4;  // "help"
  for (const Flag& f : flags_) width = std::max(width, f.name.size());
  std::string out = "usage: " + program_ + " [--flag=value ...]\n\n";
  for (const Flag& f : flags_) {
    out += "  --" + f.name + std::string(width + 2 - f.name.size(), ' ') +
           f.help + "\n";
  }
  return out + "  --help" + std::string(width - 2, ' ') +
         "print this help and exit\n";
}

}  // namespace dsi::common
