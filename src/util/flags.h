#ifndef MYSAWH_UTIL_FLAGS_H_
#define MYSAWH_UTIL_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace mysawh {

/// Minimal command-line parser for the CLI tools: a leading positional
/// command word followed by `--key value` / `--key=value` flags and bare
/// positional arguments.
class FlagParser {
 public:
  /// Parses argv (excluding argv[0]). Fails on a dangling `--key` with no
  /// value or on a repeated key.
  static Result<FlagParser> Parse(int argc, const char* const* argv);

  /// The first positional argument ("" when absent) — the subcommand.
  const std::string& command() const { return command_; }
  /// Positional arguments after the command.
  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& key) const { return flags_.count(key) > 0; }

  /// String flag with default.
  std::string GetString(const std::string& key,
                        const std::string& default_value = "") const;
  /// Integer flag; fails when present but unparsable.
  Result<int64_t> GetInt(const std::string& key, int64_t default_value) const;
  /// Double flag; fails when present but unparsable.
  Result<double> GetDouble(const std::string& key,
                           double default_value) const;
  /// Bool flag: present without value or with "true"/"1" = true.
  bool GetBool(const std::string& key, bool default_value = false) const;

 private:
  std::string command_;
  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
};

}  // namespace mysawh

#endif  // MYSAWH_UTIL_FLAGS_H_
