#include "cli/args.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace rdp {
namespace {

/// Parses all of `raw` as T: no trailing junk, no overflow.
template <class T>
std::optional<T> parse_all(const std::string& raw) {
  T value{};
  const char* const end = raw.data() + raw.size();
  const auto [ptr, ec] = std::from_chars(raw.data(), end, value);
  return ec == std::errc() && ptr == end ? std::optional<T>(value) : std::nullopt;
}

/// Shortest text that parses back to `value`.
std::string format_real(double value) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof(buf), value).ptr};
}

/// "--key" or "--key=value" -> "key"; "" for a token that is no flag.
std::string flag_name(const std::string& token) {
  return token.rfind("--", 0) == 0 ? token.substr(2, token.find('=') - 2) : "";
}

}  // namespace

Args::Args(int argc, const char* const* argv, std::string program)
    : program_(program.empty() && argc > 0 ? argv[0] : std::move(program)) {
  for (int i = 1; i < argc; ++i) tokens_.push_back({argv[i]});
}

std::optional<std::string> Args::take(const std::string& name,
                                      const std::string& metavar,
                                      const std::string& fallback,
                                      const std::string& help, bool is_switch) {
  for (const Declared& d : declared_) {
    if (d.name == name) throw std::logic_error("Args: --" + name + " declared twice");
  }
  declared_.push_back({name, metavar, fallback, help, fallback});
  std::optional<std::string> value;
  bool seen = false;
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    Token& token = tokens_[i];
    if (token.used || flag_name(token.text) != name) continue;
    token.used = true;
    const std::size_t eq = token.text.find('=');
    if (std::exchange(seen, true)) {
      errors_.push_back("--" + name + " given more than once");
    } else if (eq != std::string::npos) {
      value = token.text.substr(eq + 1);
    } else if (is_switch) {
      value = "true";
    } else if (i + 1 < tokens_.size() && tokens_[i + 1].text.rfind("--", 0) != 0) {
      tokens_[i + 1].used = true;
      value = tokens_[i + 1].text;
    } else {
      errors_.push_back("--" + name + " expects a value: --" + name + "=" + metavar);
    }
  }
  if (value) declared_.back().value = *value;
  return value;
}

std::vector<std::string> Args::list(const std::string& name, const std::string& metavar,
                                    const std::string& fallback, const std::string& help,
                                    bool nonempty) {
  const std::string raw = take(name, metavar, fallback, help, false).value_or(fallback);
  std::vector<std::string> items;
  for (std::size_t start = 0, comma = 0; start <= raw.size(); start = comma + 1) {
    comma = std::min(raw.find(',', start), raw.size());
    if (comma > start) items.push_back(raw.substr(start, comma - start));
  }
  if (nonempty && items.empty()) errors_.push_back("--" + name + " needs a value");
  return items;
}

std::optional<double> Args::check_real(const std::string& name, const std::string& raw,
                                       double above) {
  const std::optional<double> value = parse_all<double>(raw);
  if (value && std::isfinite(*value) && *value > above) return value;
  errors_.push_back("--" + name + " expects a finite number" +
                    (above > -kInf ? " > " + format_real(above) : "") + ", got '" + raw +
                    "'");
  return std::nullopt;
}

std::optional<std::int64_t> Args::check_integer(const std::string& name,
                                                const std::string& raw,
                                                std::int64_t min, std::int64_t max) {
  const std::optional<std::int64_t> value = parse_all<std::int64_t>(raw);
  if (value && *value >= min && *value <= max) return value;
  errors_.push_back("--" + name + " expects an integer in [" + std::to_string(min) +
                    ", " + std::to_string(max) + "], got '" + raw + "'");
  return std::nullopt;
}

std::string Args::text(const std::string& name, const std::string& fallback,
                       const std::string& help) {
  return take(name, "TEXT", fallback, help, false).value_or(fallback);
}

std::string Args::required(const std::string& name, const std::string& help) {
  const std::optional<std::string> value =
      take(name, "TEXT", "", help + " (required)", false);
  if (!given(name)) errors_.push_back("--" + name + " is required");
  return value.value_or("");
}

bool Args::toggle(const std::string& name, const std::string& help) {
  const std::string v = take(name, "", "", help, true).value_or("false");
  declared_.back().value = v;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  errors_.push_back("--" + name + " is a switch; got '" + v + "'");
  return false;
}

double Args::real(const std::string& name, double fallback, const std::string& help,
                  double above) {
  const auto raw = take(name, "REAL", format_real(fallback), help, false);
  return raw ? check_real(name, *raw, above).value_or(fallback) : fallback;
}

std::optional<double> Args::maybe_real(const std::string& name, const std::string& help,
                                       double above) {
  const auto raw = take(name, "REAL", "", help, false);
  return raw ? check_real(name, *raw, above) : std::nullopt;
}

std::vector<std::string> Args::texts(const std::string& name,
                                    const std::string& fallback,
                                    const std::string& help) {
  return list(name, "TEXT,...", fallback, help, false);
}

std::vector<double> Args::reals(const std::string& name, const std::string& fallback,
                                const std::string& help, double above) {
  std::vector<double> out;
  for (const std::string& item : list(name, "REAL,...", fallback, help, true)) {
    if (const auto value = check_real(name, item, above)) out.push_back(*value);
  }
  return out;
}

std::vector<std::string> Args::positionals(const std::string& metavar,
                                           const std::string& help) {
  positional_help_ = "  " + metavar + " ...  " + help + "\n";
  std::vector<std::string> out;
  for (const Token& token : tokens_) {
    if (!token.used && token.text.rfind("--", 0) != 0) out.push_back(token.text);
  }
  return out;
}

bool Args::given(const std::string& name) const {
  return std::any_of(tokens_.begin(), tokens_.end(),
                     [&](const Token& t) { return flag_name(t.text) == name; });
}

std::vector<std::pair<std::string, std::string>> Args::resolved() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Declared& d : declared_) out.emplace_back(d.name, d.value);
  return out;
}

bool Args::finish() {
  if (given("help")) {
    std::size_t width = 0;
    for (const Declared& d : declared_) {
      width = std::max(width, d.name.size() + d.metavar.size());
    }
    std::cout << "usage: " << program_ << " [--flag=VALUE ...]"
              << (positional_help_.empty() ? "\n" : " [ARG ...]\n") << positional_help_;
    for (const Declared& d : declared_) {
      const std::string flag = "--" + d.name + (d.metavar.empty() ? "" : "=" + d.metavar);
      std::cout << "  " << flag << std::string(width + 5 - flag.size(), ' ') << d.help
                << (d.fallback.empty() ? "" : " (default: " + d.fallback + ")") << "\n";
    }
    return true;
  }
  std::string message;
  auto problem = [&](const std::string& p) {
    message += (message.empty() ? "" : "; ") + p;
  };
  for (const std::string& error : errors_) problem(error);
  for (const Token& token : tokens_) {
    if (token.used) continue;
    if (token.text == "--") {
      problem("bare '--' is not a flag");
    } else if (token.text.rfind("--", 0) == 0) {
      problem("unknown flag --" + flag_name(token.text));
    } else if (positional_help_.empty()) {
      problem("unexpected argument '" + token.text + "'");
    }
  }
  if (!message.empty()) throw std::invalid_argument(message);
  return false;
}

void Args::finish_or_exit() {
  try {
    if (finish()) std::exit(EXIT_SUCCESS);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\nrun '" << program_
              << " --help' for the flag list\n";
    std::exit(2);
  }
}

}  // namespace rdp
