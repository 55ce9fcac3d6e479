#include "util/flags.hpp"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <utility>

#include "util/parse.hpp"
#include "util/status.hpp"

namespace mrl::util {

namespace {

std::string invalid(const std::string& name, const std::string& value,
                    const std::string& need) {
  return "invalid " + name + " value '" + value + "' (" + need + ")";
}

// Flushes the streams and leaves without the atexit handlers: a usage error
// or --help must not publish half-configured observer output.
[[noreturn]] void leave(int rc) {
  std::fflush(nullptr);
  std::_Exit(rc);
}

}  // namespace

FlagSet::FlagSet(std::string synopsis, std::string epilog)
    : synopsis_(std::move(synopsis)), epilog_(std::move(epilog)) {}

void FlagSet::add(Flag f) {
  MRL_CHECK(f.name.rfind("--", 0) == 0 && f.apply != nullptr);
  MRL_CHECK(std::none_of(flags_.begin(), flags_.end(),
                         [&f](const Flag& g) { return g.name == f.name; }));
  flags_.push_back(std::move(f));
}

std::vector<std::string> FlagSet::parse(int argc, char** argv) {
  if (argc > 0) prog_ = argv[0];
  std::vector<std::string> positionals;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      leave(0);
    }
    if (arg.size() < 2 || arg[0] != '-') {
      positionals.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto f =
        std::find_if(flags_.begin(), flags_.end(),
                     [&name](const Flag& g) { return g.name == name; });
    if (f == flags_.end()) fail("unrecognized argument '" + arg + "'");
    std::string value;
    if (f->placeholder.empty()) {
      if (eq != std::string::npos) fail(name + " takes no value");
    } else if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      fail(name + (f->placeholder == "PATH" ? " requires a path"
                                             : " requires a value"));
    }
    const std::string error = f->apply(value);
    if (!error.empty()) fail(error);
  }
  return positionals;
}

void FlagSet::fail(const std::string& diagnostic) const {
  std::fprintf(stderr, "%s: %s\n", prog_.c_str(), diagnostic.c_str());
  usage(stderr);
  leave(2);
}

void FlagSet::usage(std::FILE* out) const {
  std::fprintf(out, "usage: %s [flags]%s%s\nflags:\n", prog_.c_str(),
               synopsis_.empty() ? "" : " ", synopsis_.c_str());
  auto left = [](const Flag& f) {
    return f.placeholder.empty() ? f.name : f.name + " " + f.placeholder;
  };
  const std::string help = "-h, --help";
  std::size_t width = help.size();
  for (const Flag& f : flags_) width = std::max(width, left(f).size());
  for (const Flag& f : flags_) {
    std::fprintf(out, "  %-*s  %s\n", static_cast<int>(width), left(f).c_str(),
                 f.help.c_str());
  }
  std::fprintf(out, "  %-*s  %s\n", static_cast<int>(width), help.c_str(),
               "print this help and exit");
  std::fprintf(out, "%s", epilog_.c_str());
}

Flag switch_flag(std::string name, std::string help,
                 std::function<void()> set) {
  return {std::move(name), "", std::move(help),
          [set = std::move(set)](const std::string&) {
            set();
            return std::string();
          }};
}

Flag int_flag(std::string name, std::string help, int min,
              std::function<void(int)> set) {
  return {name, "N", std::move(help),
          [name, min, set = std::move(set)](const std::string& v) {
            const std::optional<long long> n = parse_i64(v);
            if (!n || *n < min || *n > INT_MAX) {
              return invalid(name, v,
                             "need an integer in [" + std::to_string(min) +
                                 ", " + std::to_string(INT_MAX) + "]");
            }
            set(static_cast<int>(*n));
            return std::string();
          }};
}

Flag real_flag(std::string name, std::string placeholder, std::string help,
               double min, std::function<void(double)> set) {
  return {name, std::move(placeholder), std::move(help),
          [name, min, set = std::move(set)](const std::string& v) {
            const std::optional<double> x = parse_f64(v);
            if (!x || *x < min) {
              char need[48];
              std::snprintf(need, sizeof(need), "need a number >= %g", min);
              return invalid(name, v, need);
            }
            set(*x);
            return std::string();
          }};
}

Flag path_flag(std::string name, std::string help,
               std::function<void(const std::string&)> set) {
  return {name, "PATH", std::move(help),
          [name, set = std::move(set)](const std::string& v) {
            if (v.empty()) return name + " requires a non-empty path";
            set(v);
            return std::string();
          }};
}

Flag choice_flag(std::string name, std::string placeholder, std::string help,
                 std::vector<std::string> choices,
                 std::function<void(const std::string&)> set) {
  return {name, std::move(placeholder), std::move(help),
          [name, choices = std::move(choices),
           set = std::move(set)](const std::string& v) {
            if (std::find(choices.begin(), choices.end(), v) == choices.end()) {
              std::string expected = "'" + choices.front() + "'";
              for (std::size_t i = 1; i < choices.size(); ++i) {
                expected += (i + 1 < choices.size() ? ", '" : " or '") +
                            choices[i] + "'";
              }
              return invalid(name, v, "expected " + expected);
            }
            set(v);
            return std::string();
          }};
}

}  // namespace mrl::util
