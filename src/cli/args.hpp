// The one flag parser for rdp_cli and the bench/example binaries. The call
// that reads a flag declares it -- name, type, default and one help line
// -- and finish() then rejects everything that was not declared:
//
//   Args args(argc, argv);
//   const auto m = args.integer<MachineId>("m", 8, 1, "number of machines");
//   const double alpha = args.real("alpha", 1.5, "uncertainty factor");
//   if (args.finish()) return 0;  // --help printed the declared flags
//
// Values come as --key=value or --key value; a switch (toggle) is --key or
// --key=true|false and never takes the following token as its value.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace rdp {

class Args {
  static constexpr double kInf = std::numeric_limits<double>::infinity();

 public:
  /// Keeps argv[1..]; `program` (default argv[0]) heads the --help text.
  Args(int argc, const char* const* argv, std::string program = {});

  /// A string flag; an explicitly empty value (--key=) is kept.
  std::string text(const std::string& name, const std::string& fallback,
                   const std::string& help);
  /// A string flag that must be given.
  std::string required(const std::string& name, const std::string& help);
  /// A switch: false unless given.
  bool toggle(const std::string& name, const std::string& help);
  /// A finite real; values <= `above` are rejected.
  double real(const std::string& name, double fallback, const std::string& help,
              double above = -kInf);
  /// A finite real without a default: nullopt unless given.
  std::optional<double> maybe_real(const std::string& name, const std::string& help,
                                   double above = -kInf);
  /// An integer in [min, max of T].
  template <class T>
  T integer(const std::string& name, T fallback, T min, const std::string& help) {
    const auto raw = take(name, "INT", std::to_string(fallback), help, false);
    const auto value = raw ? check_integer(name, *raw, min, max_of<T>()) : std::nullopt;
    return value ? static_cast<T>(*value) : fallback;
  }
  /// A comma list of strings (empty items dropped; the list may be empty).
  std::vector<std::string> texts(const std::string& name, const std::string& fallback,
                                 const std::string& help);
  /// A non-empty comma list of finite reals, each > `above`.
  std::vector<double> reals(const std::string& name, const std::string& fallback,
                            const std::string& help, double above = -kInf);
  /// A non-empty comma list of integers in [min, max of T].
  template <class T>
  std::vector<T> integers(const std::string& name, const std::string& fallback, T min,
                          const std::string& help) {
    std::vector<T> out;
    for (const std::string& item : list(name, "INT,...", fallback, help, true)) {
      const auto value = check_integer(name, item, min, max_of<T>());
      if (value) out.push_back(static_cast<T>(*value));
    }
    return out;
  }
  /// Accepts positional arguments (otherwise each one is an error). Call
  /// it after the flags, which claim their space-separated values first.
  std::vector<std::string> positionals(const std::string& metavar,
                                       const std::string& help);

  /// Whether `name` appeared on the command line (declared or not).
  [[nodiscard]] bool given(const std::string& name) const;
  /// Every declared flag with its resolved value (defaults included), in
  /// declaration order; unset flags without a default resolve to "".
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> resolved() const;

  /// The finishing step. On --help prints the declared flags to stdout and
  /// returns true. Otherwise throws std::invalid_argument naming every
  /// undeclared, repeated, malformed, out-of-range or missing flag and
  /// every unexpected positional, or returns false when there is none.
  bool finish();
  /// finish() for a main(): a flag error is printed and exits 2, --help
  /// exits 0.
  void finish_or_exit();

 private:
  struct Token {
    std::string text;
    bool used = false;
  };
  struct Declared {
    std::string name, metavar, fallback, help, value;
  };

  template <class T>
  static constexpr std::int64_t max_of() {
    return static_cast<std::int64_t>(std::min<std::uintmax_t>(
        std::numeric_limits<T>::max(), std::numeric_limits<std::int64_t>::max()));
  }
  /// Declares a flag and returns its raw value when given.
  std::optional<std::string> take(const std::string& name, const std::string& metavar,
                                  const std::string& fallback, const std::string& help,
                                  bool is_switch);
  /// take() for a comma list, split into its non-empty items.
  std::vector<std::string> list(const std::string& name, const std::string& metavar,
                                const std::string& fallback, const std::string& help,
                                bool nonempty);
  /// Parse one value; a malformed or out-of-range one is recorded as an
  /// error and yields nullopt.
  std::optional<double> check_real(const std::string& name, const std::string& raw,
                                   double above);
  std::optional<std::int64_t> check_integer(const std::string& name,
                                            const std::string& raw, std::int64_t min,
                                            std::int64_t max);

  std::string program_;
  std::vector<Token> tokens_;
  std::vector<Declared> declared_;
  std::vector<std::string> errors_;
  std::string positional_help_;
};

}  // namespace rdp
