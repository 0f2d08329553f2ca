#include "model/model.h"

#include <map>
#include <mutex>

#include "util/failpoint.h"
#include "util/file_io.h"
#include "util/string_util.h"

namespace mysawh::model {

namespace {

constexpr const char kKindPrefix[] = "kind: ";

struct Registry {
  std::mutex mutex;
  std::map<std::string, ModelFactory> factories;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry;
  return *registry;
}

}  // namespace

Result<std::vector<double>> Model::PredictBatch(const Dataset& data) const {
  if (data.num_features() != NumFeatures()) {
    return Status::InvalidArgument(
        "PredictBatch: dataset width " + std::to_string(data.num_features()) +
        " != model width " + std::to_string(NumFeatures()));
  }
  std::vector<double> out(static_cast<size_t>(data.num_rows()));
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    out[static_cast<size_t>(r)] = Predict(data.row(r));
  }
  return out;
}

std::string Model::SerializeWithKind() const {
  return kKindPrefix + Kind() + "\n" + Serialize();
}

Status Model::SaveToFile(const std::string& path) const {
  MYSAWH_FAILPOINT("model_save/serialize");
  // Checksummed envelope + write-temp/fsync/rename: a reader can always
  // tell a good artifact from a torn or bit-flipped one, and a crash
  // mid-save never clobbers a previously saved model.
  return WriteFileChecksummed(path, SerializeWithKind(), "model_save");
}

Result<std::unique_ptr<Model>> Model::Deserialize(const std::string& text) {
  EnsureBuiltinFamiliesRegistered();
  const size_t newline = text.find('\n');
  const std::string first_line = text.substr(0, newline);
  std::string kind;
  std::string payload;
  if (StartsWith(first_line, kKindPrefix)) {
    kind = Trim(first_line.substr(sizeof(kKindPrefix) - 1));
    payload = newline == std::string::npos ? "" : text.substr(newline + 1);
  } else if (StartsWith(first_line, "mysawh-gbt")) {
    // Legacy file written before the registry existed: a bare GBT payload.
    kind = "gbt";
    payload = text;
  } else {
    return Status::InvalidArgument(
        "not a model file: expected a 'kind: <family>' header, got: " +
        first_line);
  }
  ModelFactory factory;
  {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    const auto it = registry.factories.find(kind);
    if (it == registry.factories.end()) {
      std::vector<std::string> known;
      for (const auto& [k, f] : registry.factories) known.push_back(k);
      return Status::NotFound("unregistered model kind: " + kind +
                              " (known: " + Join(known, ", ") + ")");
    }
    factory = it->second;
  }
  return factory(payload);
}

Result<std::unique_ptr<Model>> Model::LoadFromFile(const std::string& path) {
  MYSAWH_FAILPOINT("model_load/read");
  MYSAWH_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  if (LooksChecksummed(text)) {
    // Envelope present: verify before parsing, so corruption surfaces as
    // DataLoss instead of a confusing parse error (or worse).
    MYSAWH_ASSIGN_OR_RETURN(text, UnwrapChecksummed(text));
  }
  // Files written before the envelope existed parse directly.
  return Deserialize(text);
}

void RegisterModelFactory(const std::string& kind, ModelFactory factory) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.factories[kind] = std::move(factory);
}

}  // namespace mysawh::model
