#ifndef LEAKDET_UTIL_FLAGS_H_
#define LEAKDET_UTIL_FLAGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace leakdet {

/// Command-line flags for the tools and bench binaries.
///
/// Accepts `--name=value`, `--name value` and a bare `--name` (a bool);
/// `-name` is the same as `--name`. A binary reads every flag it knows up
/// front through the typed getters, each of which returns its default when
/// the flag is absent, and then calls Finish(), which exits 2 with a usage
/// line generated from those reads if any argument was malformed, unread or
/// a stray positional:
///
///   leakdet::Flags flags(argc, argv);
///   const uint64_t runs = flags.Uint("runs", 2);
///   const bool verbose = flags.Bool("verbose");
///   if (runs == 0) flags.Error("--runs must be positive");
///   flags.Finish();
///
/// A repeated flag takes its last value.
class Flags {
 public:
  /// Parses argv[first..argc). argv[0..first) (the binary and, for tools
  /// with subcommands, the subcommand) name the program in the usage line.
  Flags(int argc, char** argv, int first = 1);

  std::string String(std::string_view name, std::string_view def = "");
  /// A value above `max` is an error (e.g. max 65535 for a port).
  uint64_t Uint(std::string_view name, uint64_t def,
                uint64_t max = UINT64_MAX);
  /// A comma-separated list of non-negative integers, e.g. `--sizes=40,80`.
  std::vector<uint64_t> UintList(std::string_view name,
                                 std::string_view def);
  double Double(std::string_view name, double def);
  /// True iff `--name` is given. A bool takes no value: `--name=x` is an
  /// error, and the argument after `--name` is never its value. A nonzero
  /// `short_name` also accepts `-<short_name>`.
  bool Bool(std::string_view name, char short_name = 0);

  /// True iff the flag was given. Does not count as reading it.
  bool Has(std::string_view name) const;

  /// Records a usage error of the binary's own (say, an out-of-range
  /// value); Finish() reports it with the rest.
  void Error(std::string message);

  /// Every usage error so far: malformed values, Error() calls, flags no
  /// getter read, and positional arguments no flag took as its value.
  std::vector<std::string> Problems() const;

  /// "usage: <program> [--name=default] ... [--bool]", from the reads.
  std::string Usage() const;

  /// Prints Problems() and Usage() to stderr and exits 2 if there are any.
  void Finish() const;

 private:
  struct Arg {
    std::string name;  ///< without leading dashes; empty for a positional
    std::string value;  ///< text after '=', or the positional itself
    bool has_value = false;  ///< `--name=value` form
    bool read = false;  ///< read by a getter / taken as a flag's value
  };

  /// Adds `[item]` to the usage line unless `name` is already on it.
  void Note(std::string_view name, std::string item);
  /// Adds `--name=shown` to the usage line and returns the value of the
  /// last `--name`, or nullptr when absent. Marks every occurrence read;
  /// one written `--name value` takes the positional after it.
  const std::string* FindValue(std::string_view name, std::string shown);
  /// Reads a bool flag without adding it to the usage line.
  bool BoolValue(std::string_view name);
  void Malformed(std::string_view name, const std::string& value,
                 const std::string& problem);

  std::string program_;
  std::vector<Arg> args_;
  std::vector<std::pair<std::string, std::string>> usage_;  ///< name, item
  std::vector<std::string> errors_;
};

}  // namespace leakdet

#endif  // LEAKDET_UTIL_FLAGS_H_
