#include "util/flags.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/strutil.h"

namespace leakdet {

namespace {

/// "--name", "--name=v", "-v": one or two dashes, then a letter. Anything
/// else, negative numbers included, is a positional (or a flag's value).
bool IsFlag(std::string_view arg) {
  size_t dashes = 0;
  while (dashes < 2 && dashes < arg.size() && arg[dashes] == '-') ++dashes;
  return dashes > 0 && arg.size() > dashes &&
         std::isalpha(static_cast<unsigned char>(arg[dashes]));
}

}  // namespace

Flags::Flags(int argc, char** argv, int first) {
  for (int i = 0; i < first && i < argc; ++i) {
    std::string_view part = argv[i];
    if (i == 0) part = part.substr(part.rfind('/') + 1);
    if (!program_.empty()) program_ += ' ';
    program_ += part;
  }
  for (int i = first; i < argc; ++i) {
    std::string_view text = argv[i];
    Arg arg;
    if (IsFlag(text)) {
      text.remove_prefix(text[1] == '-' ? 2 : 1);
      size_t eq = text.find('=');
      arg.name = std::string(text.substr(0, eq));
      if (eq != std::string_view::npos) {
        arg.value = std::string(text.substr(eq + 1));
        arg.has_value = true;
      }
    } else {
      arg.value = std::string(text);
    }
    args_.push_back(std::move(arg));
  }
}

void Flags::Note(std::string_view name, std::string item) {
  for (const auto& [noted, unused] : usage_) {
    if (noted == name) return;
  }
  usage_.emplace_back(std::string(name), std::move(item));
}

const std::string* Flags::FindValue(std::string_view name, std::string shown) {
  if (shown.empty()) shown = "VALUE";
  Note(name, "--" + std::string(name) + "=" + shown);
  const std::string* value = nullptr;
  for (size_t i = 0; i < args_.size(); ++i) {
    Arg& arg = args_[i];
    if (arg.name.empty() || arg.name != name) continue;
    arg.read = true;
    if (arg.has_value) {
      value = &arg.value;
    } else if (i + 1 < args_.size() && args_[i + 1].name.empty()) {
      args_[i + 1].read = true;
      value = &args_[i + 1].value;
    } else {
      errors_.push_back("--" + arg.name + " needs a value");
    }
  }
  return value;
}

void Flags::Malformed(std::string_view name, const std::string& value,
                      const std::string& problem) {
  errors_.push_back("--" + std::string(name) + "=" + value + ": " + problem);
}

std::string Flags::String(std::string_view name, std::string_view def) {
  const std::string* value = FindValue(name, std::string(def));
  return value != nullptr ? *value : std::string(def);
}

uint64_t Flags::Uint(std::string_view name, uint64_t def, uint64_t max) {
  const std::string* value = FindValue(name, std::to_string(def));
  if (value == nullptr) return def;
  StatusOr<uint64_t> parsed = ParseUint64(*value);
  if (parsed.ok() && *parsed <= max) return *parsed;
  Malformed(name, *value,
            parsed.ok() ? "above " + std::to_string(max)
                        : "not a non-negative integer");
  return def;
}

std::vector<uint64_t> Flags::UintList(std::string_view name,
                                      std::string_view def) {
  const std::string* value = FindValue(name, std::string(def));
  std::string_view text = value != nullptr ? *value : def;
  std::vector<uint64_t> list;
  if (text.empty()) return list;
  for (std::string_view item : Split(text, ',')) {
    StatusOr<uint64_t> parsed = ParseUint64(item);
    if (!parsed.ok()) {
      Malformed(name, std::string(text),
                "not a list of non-negative integers");
      return {};
    }
    list.push_back(*parsed);
  }
  return list;
}

double Flags::Double(std::string_view name, double def) {
  char shown[32];
  std::snprintf(shown, sizeof(shown), "%g", def);
  const std::string* value = FindValue(name, shown);
  if (value == nullptr) return def;
  char* end = nullptr;
  double parsed = std::strtod(value->c_str(), &end);
  if (!value->empty() && *end == '\0' && std::isfinite(parsed)) return parsed;
  Malformed(name, *value, "not a number");
  return def;
}

bool Flags::Bool(std::string_view name, char short_name) {
  std::string item = "--" + std::string(name);
  if (short_name == 0) {
    Note(name, std::move(item));
    return BoolValue(name);
  }
  Note(name, item + "|-" + short_name);
  // Both spellings are read, so neither is left over as unknown.
  const bool long_value = BoolValue(name);
  return BoolValue(std::string_view(&short_name, 1)) || long_value;
}

bool Flags::BoolValue(std::string_view name) {
  bool present = false;
  for (Arg& arg : args_) {
    if (arg.name.empty() || arg.name != name) continue;
    arg.read = true;
    present = true;
    if (arg.has_value) Malformed(name, arg.value, "a bool flag takes no value");
  }
  return present;
}

bool Flags::Has(std::string_view name) const {
  for (const Arg& arg : args_) {
    if (!arg.name.empty() && arg.name == name) return true;
  }
  return false;
}

void Flags::Error(std::string message) {
  errors_.push_back(std::move(message));
}

std::vector<std::string> Flags::Problems() const {
  std::vector<std::string> problems = errors_;
  for (const Arg& arg : args_) {
    if (arg.read) continue;
    problems.push_back(arg.name.empty()
                           ? "unexpected argument '" + arg.value + "'"
                           : "unknown flag --" + arg.name);
  }
  return problems;
}

std::string Flags::Usage() const {
  std::string usage = "usage: " + program_;
  size_t line_start = 0;
  for (const auto& [name, item] : usage_) {
    if (usage.size() - line_start + item.size() + 3 > 79) {
      line_start = usage.size() + 1;
      usage += "\n ";
    }
    usage += " [" + item + "]";
  }
  return usage;
}

void Flags::Finish() const {
  std::vector<std::string> problems = Problems();
  if (problems.empty()) return;
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), problem.c_str());
  }
  std::fprintf(stderr, "%s\n", Usage().c_str());
  std::exit(2);
}

}  // namespace leakdet
