#include "util/flags.h"

#include "util/string_util.h"

namespace mysawh {

Result<FlagParser> FlagParser::Parse(int argc, const char* const* argv) {
  FlagParser parser;
  int i = 0;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--")) {
      std::string key, value;
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        key = arg.substr(2, eq - 2);
        value = arg.substr(eq + 1);
      } else {
        key = arg.substr(2);
        // A value follows unless the next token is another flag or absent
        // (then it is a boolean switch).
        if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
          value = argv[++i];
        } else {
          value = "true";
        }
      }
      if (key.empty()) {
        return Status::InvalidArgument("empty flag name");
      }
      if (parser.flags_.count(key)) {
        return Status::InvalidArgument("repeated flag: --" + key);
      }
      parser.flags_[key] = value;
    } else if (parser.command_.empty() && parser.positional_.empty() &&
               parser.flags_.empty()) {
      parser.command_ = arg;
    } else {
      parser.positional_.push_back(arg);
    }
  }
  return parser;
}

std::string FlagParser::GetString(const std::string& key,
                                  const std::string& default_value) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? default_value : it->second;
}

Result<int64_t> FlagParser::GetInt(const std::string& key,
                                   int64_t default_value) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return default_value;
  MYSAWH_ASSIGN_OR_RETURN(int64_t value, ParseInt64(it->second));
  return value;
}

Result<double> FlagParser::GetDouble(const std::string& key,
                                     double default_value) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return default_value;
  MYSAWH_ASSIGN_OR_RETURN(double value, ParseDouble(it->second));
  return value;
}

bool FlagParser::GetBool(const std::string& key, bool default_value) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return default_value;
  return it->second == "true" || it->second == "1";
}

}  // namespace mysawh
