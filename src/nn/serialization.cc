#include "nn/serialization.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.h"
#include "common/fault_injector.h"
#include "common/fnv1a.h"

namespace kddn::nn {
namespace {

constexpr char kMagic[4] = {'K', 'D', 'D', 'N'};
constexpr char kTrainerMarker[4] = {'T', 'R', 'S', 'T'};
constexpr uint32_t kVersion = 2;

template <typename T>
void WriteRaw(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void WriteU32(std::ostream& out, uint32_t value) { WriteRaw(out, value); }
void WriteI32(std::ostream& out, int32_t value) { WriteRaw(out, value); }

template <typename T>
T ReadRaw(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  KDDN_CHECK(in.good()) << "truncated checkpoint";
  return value;
}

uint32_t ReadU32(std::istream& in) { return ReadRaw<uint32_t>(in); }
int32_t ReadI32(std::istream& in) { return ReadRaw<int32_t>(in); }

void WriteString(std::ostream& out, const std::string& text) {
  WriteU32(out, static_cast<uint32_t>(text.size()));
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string ReadString(std::istream& in) {
  const uint32_t length = ReadU32(in);
  std::string text(length, '\0');
  in.read(text.data(), length);
  KDDN_CHECK(in.good()) << "truncated checkpoint";
  return text;
}

/// Tensor payload: rank u32, dims i32..., float32 bytes.
void WriteTensor(std::ostream& out, const Tensor& value) {
  WriteU32(out, static_cast<uint32_t>(value.rank()));
  for (int axis = 0; axis < value.rank(); ++axis) {
    WriteI32(out, value.dim(axis));
  }
  out.write(reinterpret_cast<const char*>(value.data()),
            static_cast<std::streamsize>(value.size() * sizeof(float)));
}

Tensor ReadTensor(std::istream& in, const std::string& context) {
  const uint32_t rank = ReadU32(in);
  std::vector<int> shape;
  for (uint32_t axis = 0; axis < rank; ++axis) {
    shape.push_back(ReadI32(in));
  }
  Tensor value(shape);
  in.read(reinterpret_cast<char*>(value.data()),
          static_cast<std::streamsize>(value.size() * sizeof(float)));
  KDDN_CHECK(in.good()) << "truncated checkpoint payload for " << context;
  return value;
}

void WriteNamedTensors(
    std::ostream& out,
    const std::vector<std::pair<std::string, Tensor>>& entries) {
  WriteU32(out, static_cast<uint32_t>(entries.size()));
  for (const auto& [name, value] : entries) {
    WriteString(out, name);
    WriteTensor(out, value);
  }
}

std::vector<std::pair<std::string, Tensor>> ReadNamedTensors(
    std::istream& in, const char* context) {
  const uint32_t count = ReadU32(in);
  std::vector<std::pair<std::string, Tensor>> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string name = ReadString(in);
    Tensor value = ReadTensor(in, std::string(context) + "/" + name);
    entries.emplace_back(std::move(name), std::move(value));
  }
  return entries;
}

void WriteTrainerState(std::ostream& out, const TrainerState& state) {
  out.write(kTrainerMarker, sizeof(kTrainerMarker));
  WriteI32(out, state.completed_epochs);
  WriteRaw(out, state.seed);
  WriteRaw(out, state.best_validation_auc);
  WriteU32(out, static_cast<uint32_t>(state.curve.size()));
  for (const eval::CurvePoint& point : state.curve) {
    WriteI32(out, point.epoch);
    WriteRaw(out, point.train_loss);
    WriteRaw(out, point.validation_loss);
    WriteRaw(out, point.validation_auc);
  }
  WriteNamedTensors(out, state.accumulators);
  WriteNamedTensors(out, state.best_params);
}

TrainerState ReadTrainerState(std::istream& in) {
  TrainerState state;
  state.completed_epochs = ReadI32(in);
  state.seed = ReadRaw<uint64_t>(in);
  state.best_validation_auc = ReadRaw<double>(in);
  const uint32_t points = ReadU32(in);
  state.curve.reserve(points);
  for (uint32_t i = 0; i < points; ++i) {
    eval::CurvePoint point;
    point.epoch = ReadI32(in);
    point.train_loss = ReadRaw<double>(in);
    point.validation_loss = ReadRaw<double>(in);
    point.validation_auc = ReadRaw<double>(in);
    state.curve.push_back(point);
  }
  state.accumulators = ReadNamedTensors(in, "accumulator");
  state.best_params = ReadNamedTensors(in, "best-param");
  return state;
}

void ReadParameterBody(ParameterSet* params, std::istream& body) {
  const uint32_t count = ReadU32(body);
  KDDN_CHECK_EQ(count, params->all().size())
      << "checkpoint has " << count << " parameters, model has "
      << params->all().size();
  for (const ag::NodePtr& param : params->all()) {
    const std::string name = ReadString(body);
    KDDN_CHECK_EQ(name, param->name())
        << "checkpoint parameter order mismatch: expected " << param->name()
        << ", found " << name;
    const uint32_t rank = ReadU32(body);
    std::vector<int> shape;
    for (uint32_t axis = 0; axis < rank; ++axis) {
      shape.push_back(ReadI32(body));
    }
    Tensor& value = param->mutable_value();
    KDDN_CHECK(shape == value.shape())
        << "shape mismatch for " << name << ": checkpoint "
        << Tensor(shape).ShapeString() << " vs model " << value.ShapeString();
    body.read(reinterpret_cast<char*>(value.data()),
              static_cast<std::streamsize>(value.size() * sizeof(float)));
    KDDN_CHECK(body.good()) << "truncated checkpoint payload for " << name;
  }
}

/// Shared load path: verifies magic/version/checksum, restores parameters,
/// then (optionally) the trainer-state section. Returns whether the section
/// was present.
bool LoadImpl(ParameterSet* params, TrainerState* state, std::istream& in) {
  KDDN_CHECK(params != nullptr);
  KDDN_FAULT_POINT("nn.load.read");
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  KDDN_CHECK(in.good() && std::equal(magic, magic + 4, kMagic))
      << "not a KDDN checkpoint";
  const uint32_t version = ReadU32(in);
  KDDN_CHECK_EQ(version, kVersion)
      << "unsupported checkpoint version " << version << " (expected "
      << kVersion << ")";

  // Slurp the rest of the stream: everything but the trailing u64 is the
  // checksummed body.
  std::string rest((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  KDDN_CHECK(rest.size() >= sizeof(uint64_t))
      << "truncated checkpoint: missing checksum";
  const size_t body_size = rest.size() - sizeof(uint64_t);
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, rest.data() + body_size,
              sizeof(stored_checksum));
  const uint64_t computed_checksum = Fnv1a(rest.data(), body_size);
  KDDN_CHECK_EQ(computed_checksum, stored_checksum)
      << "checkpoint checksum mismatch: the stream is corrupt (truncated or "
         "bit-flipped after writing)";

  std::istringstream body(rest.substr(0, body_size));
  ReadParameterBody(params, body);

  if (body.peek() == std::char_traits<char>::eof()) {
    return false;  // Model-only checkpoint.
  }
  char marker[4] = {};
  body.read(marker, sizeof(marker));
  KDDN_CHECK(body.good() && std::equal(marker, marker + 4, kTrainerMarker))
      << "unrecognized trailing section in checkpoint";
  if (state != nullptr) {
    *state = ReadTrainerState(body);
  }
  return true;
}

}  // namespace

void SaveCheckpoint(const ParameterSet& params, const TrainerState* state,
                    std::ostream& out) {
  // Body is staged in memory so the trailing checksum can cover it; model
  // checkpoints here are small (a few MB at the paper's sizes).
  std::ostringstream body;
  WriteU32(body, static_cast<uint32_t>(params.all().size()));
  for (const ag::NodePtr& param : params.all()) {
    WriteString(body, param->name());
    WriteTensor(body, param->value());
  }
  if (state != nullptr) {
    WriteTrainerState(body, *state);
  }
  const std::string bytes = body.str();
  const uint64_t checksum = Fnv1a(bytes.data(), bytes.size());
  out.write(kMagic, sizeof(kMagic));
  WriteU32(out, kVersion);
  // A crash here leaves a header-only fragment that can never pass the
  // checksum — the atomic rename in SaveCheckpointToFile keeps such
  // fragments away from the live checkpoint path.
  KDDN_FAULT_POINT("nn.save.body");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  KDDN_CHECK(out.good()) << "checkpoint write failed";
}

void SaveParameters(const ParameterSet& params, std::ostream& out) {
  SaveCheckpoint(params, nullptr, out);
}

void LoadParameters(ParameterSet* params, std::istream& in) {
  LoadImpl(params, nullptr, in);
}

bool LoadCheckpoint(ParameterSet* params, TrainerState* state,
                    std::istream& in) {
  KDDN_CHECK(state != nullptr);
  return LoadImpl(params, state, in);
}

void SaveCheckpointToFile(const ParameterSet& params,
                          const TrainerState* state, const std::string& path) {
  // Stage in <path>.tmp, flush, then rename onto the destination: the
  // previous checkpoint at `path` survives a crash at any instant, and
  // readers never observe a half-written file.
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    KDDN_CHECK(out.is_open()) << "cannot open " << tmp_path << " for writing";
    SaveCheckpoint(params, state, out);
    out.flush();
    KDDN_CHECK(out.good()) << "checkpoint flush failed for " << tmp_path;
  }
  // A crash between the staged write and the rename leaves only the .tmp
  // file behind; the live checkpoint is still the previous one.
  KDDN_FAULT_POINT("nn.save.commit");
  KDDN_CHECK(std::rename(tmp_path.c_str(), path.c_str()) == 0)
      << "cannot rename " << tmp_path << " to " << path;
}

void SaveParametersToFile(const ParameterSet& params,
                          const std::string& path) {
  SaveCheckpointToFile(params, nullptr, path);
}

void LoadParametersFromFile(ParameterSet* params, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  KDDN_CHECK(in.is_open()) << "cannot open " << path;
  LoadParameters(params, in);
}

bool LoadCheckpointFromFile(ParameterSet* params, TrainerState* state,
                            const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  KDDN_CHECK(in.is_open()) << "cannot open " << path;
  return LoadCheckpoint(params, state, in);
}

}  // namespace kddn::nn
