// Copyright 2026 The QPSeeker Authors

#include "nn/serialize.h"

#include <cstring>
#include <fstream>
#include <unordered_map>
#include <unordered_set>

#include "util/crc32.h"
#include "util/io.h"
#include "util/metrics.h"

namespace qps {
namespace nn {

namespace {

constexpr uint32_t kMagicV2 = 0x51505302;  // "QPS\2"
constexpr uint32_t kFormatVersion = 2;
constexpr uint32_t kMaxSections = 64;

/// Section payload kinds.
enum SectionKind : uint32_t {
  kSectionTensors = 1,
  kSectionScalars = 2,
  kSectionRaw = 3,
  kSectionQuantTensors = 4,
};

/// Dtype tags inside a quant-tensor record (only int8 exists today; the
/// tag keeps the record self-describing for future widths).
constexpr uint32_t kQuantDtypeInt8 = 1;

// Well-known section names.
constexpr char kSecModel[] = "model";
constexpr char kSecModelInt8[] = "model_int8";
constexpr char kSecExtra[] = "extra";
constexpr char kSecOptimizer[] = "optimizer";
constexpr char kSecOptimizerScalars[] = "optimizer_scalars";
constexpr char kSecTrain[] = "train";
constexpr char kSecRng[] = "rng";

// ---------------------------------------------------------------------------
// Writing. Everything is serialized little-endian into a memory buffer and
// persisted in one io::AtomicWriteFile call.

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

void PutF64(std::string* out, double v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

struct Section {
  uint32_t kind = kSectionRaw;
  std::string name;
  std::string payload;
};

std::string TensorSectionPayload(
    const std::vector<std::pair<std::string, const Tensor*>>& tensors) {
  std::string out;
  PutU64(&out, tensors.size());
  for (const auto& [name, t] : tensors) {
    const size_t record_start = out.size();
    PutU32(&out, static_cast<uint32_t>(name.size()));
    out.append(name);
    PutU32(&out, static_cast<uint32_t>(t->rows()));
    PutU32(&out, static_cast<uint32_t>(t->cols()));
    out.append(reinterpret_cast<const char*>(t->data()),
               sizeof(float) * static_cast<size_t>(t->size()));
    PutU32(&out, crc32::Compute(out.data() + record_start,
                                out.size() - record_start));
  }
  return out;
}

/// Quant record framing, mirroring the f32 tensor records (name + shape +
/// payload + per-record CRC) with the quantization parameters in between:
///   name_len u32 | name | rows u32 | cols u32 | dtype u32 | scheme u32 |
///   num_scales u64 | scales f32* | zero_points i32* | data s8* | crc u32
std::string QuantSectionPayload(
    const std::vector<std::pair<std::string, const QuantizedTensor*>>& tensors) {
  std::string out;
  PutU64(&out, tensors.size());
  for (const auto& [name, q] : tensors) {
    const size_t record_start = out.size();
    PutU32(&out, static_cast<uint32_t>(name.size()));
    out.append(name);
    PutU32(&out, static_cast<uint32_t>(q->rows));
    PutU32(&out, static_cast<uint32_t>(q->cols));
    PutU32(&out, kQuantDtypeInt8);
    PutU32(&out, static_cast<uint32_t>(q->scheme));
    PutU64(&out, q->scales.size());
    out.append(reinterpret_cast<const char*>(q->scales.data()),
               sizeof(float) * q->scales.size());
    out.append(reinterpret_cast<const char*>(q->zero_points.data()),
               sizeof(int32_t) * q->zero_points.size());
    out.append(reinterpret_cast<const char*>(q->data.data()), q->data.size());
    PutU32(&out, crc32::Compute(out.data() + record_start,
                                out.size() - record_start));
  }
  return out;
}

std::string ScalarSectionPayload(const ScalarEntries& scalars) {
  std::string out;
  PutU64(&out, scalars.size());
  for (const auto& [name, value] : scalars) {
    PutU32(&out, static_cast<uint32_t>(name.size()));
    out.append(name);
    PutF64(&out, value);
  }
  return out;
}

std::string RngSectionPayload(const RngState& st) {
  std::string out;
  for (uint64_t word : st.s) PutU64(&out, word);
  PutU64(&out, st.have_cached_normal);
  PutF64(&out, st.cached_normal);
  return out;
}

Status ValidateWritableTensors(
    const std::vector<std::pair<std::string, const Tensor*>>& tensors) {
  for (const auto& [name, t] : tensors) {
    if (name.size() > kMaxCheckpointNameLen) {
      return Status::InvalidArgument("tensor name too long: " + name);
    }
    if (t->rows() < 0 || t->cols() < 0 || t->size() > kMaxCheckpointTensorElems) {
      return Status::InvalidArgument("tensor too large to checkpoint: " + name);
    }
  }
  return Status::OK();
}

/// The loader caps scalar names at kMaxCheckpointNameLen, so the writer must
/// refuse them too — a save that reports OK must never yield an unloadable
/// file.
Status ValidateWritableScalars(const ScalarEntries& scalars) {
  for (const auto& [name, value] : scalars) {
    (void)value;
    if (name.size() > kMaxCheckpointNameLen) {
      return Status::InvalidArgument("scalar name too long: " +
                                     name.substr(0, 64) + "...");
    }
  }
  return Status::OK();
}

/// Refuses to clobber an existing non-empty file that does not carry a
/// checkpoint magic — the guard against `Save("my_queries.sql")` typos.
Status CheckOverwriteSafe(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::OK();  // nothing there (or unreadable: surfaced later)
  uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (in.gcount() == 0) return Status::OK();  // empty placeholder is fine
  if (in.gcount() != sizeof(magic) || magic != kMagicV2) {
    return Status::InvalidArgument(
        "refusing to overwrite non-checkpoint file: " + path);
  }
  return Status::OK();
}

Status WriteCheckpoint(const std::string& path, std::vector<Section> sections) {
  for (const Section& sec : sections) {
    if (sec.name.size() > kMaxCheckpointNameLen) {
      return Status::InvalidArgument("section name too long: " +
                                     sec.name.substr(0, 64) + "...");
    }
  }
  QPS_RETURN_IF_ERROR(CheckOverwriteSafe(path));
  std::string out;
  PutU32(&out, kMagicV2);
  PutU32(&out, kFormatVersion);
  PutU32(&out, static_cast<uint32_t>(sections.size()));
  PutU32(&out, 0);  // reserved
  for (const Section& sec : sections) {
    PutU32(&out, sec.kind);
    PutU32(&out, static_cast<uint32_t>(sec.name.size()));
    out.append(sec.name);
    PutU64(&out, sec.payload.size());
    out.append(sec.payload);
    PutU32(&out, crc32::Compute(sec.payload.data(), sec.payload.size()));
  }
  PutU32(&out, crc32::Compute(out.data(), out.size()));
  QPS_RETURN_IF_ERROR(io::AtomicWriteFile(path, out));
  static metrics::Gauge* const checkpoint_bytes =
      metrics::Registry::Global().GetGauge("qps.model.checkpoint_bytes");
  checkpoint_bytes->Set(static_cast<double>(out.size()));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reading. A Reader is a bounds-checked cursor over the full file contents;
// every length and count is validated against the bytes actually present
// before any allocation sized from it.

class Reader {
 public:
  Reader(const std::string& buf, std::string context)
      : data_(buf.data()), size_(buf.size()), context_(std::move(context)) {}

  size_t remaining() const { return size_ - off_; }
  size_t offset() const { return off_; }

  Status ReadU32(uint32_t* v, const char* what) {
    return ReadRaw(v, sizeof(*v), what);
  }
  Status ReadU64(uint64_t* v, const char* what) {
    return ReadRaw(v, sizeof(*v), what);
  }
  Status ReadF64(double* v, const char* what) {
    return ReadRaw(v, sizeof(*v), what);
  }
  Status ReadF32(float* v, const char* what) {
    return ReadRaw(v, sizeof(*v), what);
  }
  Status ReadI32(int32_t* v, const char* what) {
    return ReadRaw(v, sizeof(*v), what);
  }

  Status ReadBytes(void* dst, size_t n, const char* what) {
    return ReadRaw(dst, n, what);
  }

  Status ReadString(size_t len, std::string* out, const char* what) {
    if (len > remaining()) return Truncated(what);
    out->assign(data_ + off_, len);
    off_ += len;
    return Status::OK();
  }

  /// Reads `rows*cols` float32s into a (rows x cols) tensor. Re-checks the
  /// shape with overflow-safe division so neither the byte budget nor the
  /// Tensor allocation is ever computed from an unvalidated product.
  Status ReadTensorData(int64_t rows, int64_t cols, Tensor* out,
                        const char* what) {
    if (rows < 0 || cols < 0 ||
        (rows > 0 && cols > kMaxCheckpointTensorElems / rows)) {
      return Malformed(std::string(what) + ": shape " + std::to_string(rows) +
                       "x" + std::to_string(cols) + " exceeds element cap");
    }
    const size_t bytes = sizeof(float) * static_cast<size_t>(rows) *
                         static_cast<size_t>(cols);
    if (bytes > remaining()) return Truncated(what);
    *out = Tensor(rows, cols);
    std::memcpy(out->data(), data_ + off_, bytes);
    off_ += bytes;
    return Status::OK();
  }

  /// CRC32 of [from, offset()) — used to verify a just-parsed record.
  uint32_t CrcSince(size_t from) const {
    return crc32::Compute(data_ + from, off_ - from);
  }

  Status Malformed(const std::string& what) const {
    return Status::InvalidArgument(context_ + ": " + what);
  }
  Status Truncated(const std::string& what) const {
    return Malformed("truncated at " + what + " (offset " +
                     std::to_string(off_) + " of " + std::to_string(size_) + ")");
  }

 private:
  Status ReadRaw(void* v, size_t n, const char* what) {
    if (n > remaining()) return Truncated(what);
    std::memcpy(v, data_ + off_, n);
    off_ += n;
    return Status::OK();
  }

  const char* data_;
  size_t size_;
  size_t off_ = 0;
  std::string context_;
};

using NamedTensors = std::vector<std::pair<std::string, Tensor>>;

/// Parses a v2 tensors-section payload, verifying every per-tensor CRC.
Status ParseTensorSection(const std::string& payload, const std::string& context,
                          NamedTensors* out) {
  Reader r(payload, context);
  uint64_t count = 0;
  QPS_RETURN_IF_ERROR(r.ReadU64(&count, "tensor count"));
  if (count > kMaxCheckpointTensors) {
    return r.Malformed("tensor count " + std::to_string(count) + " exceeds cap");
  }
  // Each record needs >= 16 bytes of framing; reject impossible counts
  // before reserving anything.
  if (count > payload.size() / 16) {
    return r.Malformed("tensor count " + std::to_string(count) +
                       " impossible for payload of " +
                       std::to_string(payload.size()) + " bytes");
  }
  out->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    const std::string which = "tensor #" + std::to_string(i);
    const size_t record_start = r.offset();
    uint32_t name_len = 0;
    QPS_RETURN_IF_ERROR(r.ReadU32(&name_len, "tensor name length"));
    if (name_len > kMaxCheckpointNameLen) {
      return r.Malformed(which + ": name length " + std::to_string(name_len) +
                         " exceeds cap");
    }
    std::string name;
    QPS_RETURN_IF_ERROR(r.ReadString(name_len, &name, "tensor name"));
    const std::string label = which + " ('" + name + "')";
    uint32_t rows = 0, cols = 0;
    QPS_RETURN_IF_ERROR(r.ReadU32(&rows, "tensor rows"));
    QPS_RETURN_IF_ERROR(r.ReadU32(&cols, "tensor cols"));
    // Overflow-safe cap check: u32 products can exceed INT64_MAX, so never
    // compute rows*cols on unvalidated shapes — divide instead.
    if (rows > 0 && static_cast<int64_t>(cols) >
                        kMaxCheckpointTensorElems / static_cast<int64_t>(rows)) {
      return r.Malformed(label + ": " + std::to_string(rows) + "x" +
                         std::to_string(cols) + " exceeds element cap");
    }
    Tensor t;
    QPS_RETURN_IF_ERROR(r.ReadTensorData(static_cast<int64_t>(rows),
                                         static_cast<int64_t>(cols), &t,
                                         label.c_str()));
    const uint32_t computed = r.CrcSince(record_start);
    uint32_t stored = 0;
    QPS_RETURN_IF_ERROR(r.ReadU32(&stored, "tensor checksum"));
    if (stored != computed) {
      return r.Malformed(label + ": checksum mismatch");
    }
    out->emplace_back(std::move(name), std::move(t));
  }
  if (r.remaining() != 0) {
    return r.Malformed("trailing garbage after last tensor");
  }
  return Status::OK();
}

using NamedQuantTensors = std::vector<std::pair<std::string, QuantizedTensor>>;

/// Parses a v2 quant-tensors payload, verifying framing, caps, the dtype
/// tag, scheme/scale-count coherence, per-record CRCs, and the semantic
/// scale/zero-point constraints (ValidateQuantizedTensor) — a malformed
/// scale is a load error, never a silently wrong model.
Status ParseQuantSection(const std::string& payload, const std::string& context,
                         NamedQuantTensors* out) {
  Reader r(payload, context);
  uint64_t count = 0;
  QPS_RETURN_IF_ERROR(r.ReadU64(&count, "quant tensor count"));
  if (count > kMaxCheckpointTensors || count > payload.size() / 28) {
    return r.Malformed("quant tensor count " + std::to_string(count) +
                       " impossible for payload of " +
                       std::to_string(payload.size()) + " bytes");
  }
  out->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    const std::string which = "quant tensor #" + std::to_string(i);
    const size_t record_start = r.offset();
    uint32_t name_len = 0;
    QPS_RETURN_IF_ERROR(r.ReadU32(&name_len, "quant tensor name length"));
    if (name_len > kMaxCheckpointNameLen) {
      return r.Malformed(which + ": name length " + std::to_string(name_len) +
                         " exceeds cap");
    }
    std::string name;
    QPS_RETURN_IF_ERROR(r.ReadString(name_len, &name, "quant tensor name"));
    const std::string label = which + " ('" + name + "')";
    uint32_t rows = 0, cols = 0, dtype = 0, scheme = 0;
    QPS_RETURN_IF_ERROR(r.ReadU32(&rows, "quant tensor rows"));
    QPS_RETURN_IF_ERROR(r.ReadU32(&cols, "quant tensor cols"));
    QPS_RETURN_IF_ERROR(r.ReadU32(&dtype, "quant tensor dtype"));
    QPS_RETURN_IF_ERROR(r.ReadU32(&scheme, "quant tensor scheme"));
    if (dtype != kQuantDtypeInt8) {
      return r.Malformed(label + ": unsupported quant dtype tag " +
                         std::to_string(dtype));
    }
    if (scheme != static_cast<uint32_t>(QuantScheme::kPerTensor) &&
        scheme != static_cast<uint32_t>(QuantScheme::kPerChannel)) {
      return r.Malformed(label + ": unknown quant scheme tag " +
                         std::to_string(scheme));
    }
    if (rows == 0 || cols == 0 ||
        static_cast<int64_t>(cols) >
            kMaxCheckpointTensorElems / static_cast<int64_t>(rows)) {
      return r.Malformed(label + ": invalid quant shape " +
                         std::to_string(rows) + "x" + std::to_string(cols));
    }
    uint64_t num_scales = 0;
    QPS_RETURN_IF_ERROR(r.ReadU64(&num_scales, "quant scale count"));
    const uint64_t want_scales =
        scheme == static_cast<uint32_t>(QuantScheme::kPerTensor)
            ? 1
            : static_cast<uint64_t>(cols);
    if (num_scales != want_scales) {
      return r.Malformed(label + ": scale count " + std::to_string(num_scales) +
                         " does not match scheme (expected " +
                         std::to_string(want_scales) + ")");
    }
    QuantizedTensor q;
    q.rows = static_cast<int64_t>(rows);
    q.cols = static_cast<int64_t>(cols);
    q.scheme = static_cast<QuantScheme>(scheme);
    q.scales.resize(static_cast<size_t>(num_scales));
    q.zero_points.resize(static_cast<size_t>(num_scales));
    QPS_RETURN_IF_ERROR(r.ReadBytes(q.scales.data(),
                                    sizeof(float) * q.scales.size(),
                                    "quant scales"));
    QPS_RETURN_IF_ERROR(r.ReadBytes(q.zero_points.data(),
                                    sizeof(int32_t) * q.zero_points.size(),
                                    "quant zero points"));
    q.data.resize(static_cast<size_t>(q.rows * q.cols));
    QPS_RETURN_IF_ERROR(r.ReadBytes(q.data.data(), q.data.size(),
                                    "quant int8 data"));
    const uint32_t computed = r.CrcSince(record_start);
    uint32_t stored = 0;
    QPS_RETURN_IF_ERROR(r.ReadU32(&stored, "quant tensor checksum"));
    if (stored != computed) {
      return r.Malformed(label + ": checksum mismatch");
    }
    QPS_RETURN_IF_ERROR(ValidateQuantizedTensor(q, context + ": " + label));
    out->emplace_back(std::move(name), std::move(q));
  }
  if (r.remaining() != 0) {
    return r.Malformed("trailing garbage after last quant tensor");
  }
  return Status::OK();
}

Status ParseScalarSection(const std::string& payload, const std::string& context,
                          ScalarEntries* out) {
  Reader r(payload, context);
  uint64_t count = 0;
  QPS_RETURN_IF_ERROR(r.ReadU64(&count, "scalar count"));
  if (count > payload.size() / 12) {  // >= 12 bytes of framing per entry
    return r.Malformed("scalar count " + std::to_string(count) +
                       " impossible for payload of " +
                       std::to_string(payload.size()) + " bytes");
  }
  out->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    QPS_RETURN_IF_ERROR(r.ReadU32(&name_len, "scalar name length"));
    if (name_len > kMaxCheckpointNameLen) {
      return r.Malformed("scalar #" + std::to_string(i) + ": name length cap");
    }
    std::string name;
    QPS_RETURN_IF_ERROR(r.ReadString(name_len, &name, "scalar name"));
    double value = 0.0;
    QPS_RETURN_IF_ERROR(r.ReadF64(&value, "scalar value"));
    out->emplace_back(std::move(name), value);
  }
  if (r.remaining() != 0) {
    return r.Malformed("trailing garbage after last scalar");
  }
  return Status::OK();
}

Status ParseRngSection(const std::string& payload, const std::string& context,
                       RngState* out) {
  Reader r(payload, context);
  for (uint64_t& word : out->s) QPS_RETURN_IF_ERROR(r.ReadU64(&word, "rng state"));
  QPS_RETURN_IF_ERROR(r.ReadU64(&out->have_cached_normal, "rng cache flag"));
  QPS_RETURN_IF_ERROR(r.ReadF64(&out->cached_normal, "rng cached normal"));
  if (r.remaining() != 0) return r.Malformed("trailing garbage in rng state");
  return Status::OK();
}

/// A fully parsed and checksum-verified v2 file.
struct ParsedCheckpoint {
  std::vector<Section> sections;

  const Section* Find(const std::string& name, uint32_t kind) const {
    for (const Section& s : sections) {
      if (s.name == name && s.kind == kind) return &s;
    }
    return nullptr;
  }
};

Status ParseV2(const std::string& buf, const std::string& context,
               ParsedCheckpoint* out) {
  if (buf.size() < 20) {
    return Status::InvalidArgument(context + ": too short for a v2 header");
  }
  // Whole-file CRC first: everything except the last 4 bytes.
  uint32_t stored_file_crc = 0;
  std::memcpy(&stored_file_crc, buf.data() + buf.size() - 4, 4);
  if (crc32::Compute(buf.data(), buf.size() - 4) != stored_file_crc) {
    return Status::InvalidArgument(context + ": file checksum mismatch");
  }

  Reader r(buf, context);
  uint32_t magic = 0, version = 0, section_count = 0, reserved = 0;
  QPS_RETURN_IF_ERROR(r.ReadU32(&magic, "magic"));
  QPS_RETURN_IF_ERROR(r.ReadU32(&version, "version"));
  QPS_RETURN_IF_ERROR(r.ReadU32(&section_count, "section count"));
  QPS_RETURN_IF_ERROR(r.ReadU32(&reserved, "reserved"));
  if (magic != kMagicV2) return r.Malformed("bad magic");
  if (version != kFormatVersion) {
    return r.Malformed("unsupported version " + std::to_string(version));
  }
  if (section_count > kMaxSections) {
    return r.Malformed("section count " + std::to_string(section_count) +
                       " exceeds cap");
  }
  for (uint32_t i = 0; i < section_count; ++i) {
    Section sec;
    QPS_RETURN_IF_ERROR(r.ReadU32(&sec.kind, "section kind"));
    uint32_t name_len = 0;
    QPS_RETURN_IF_ERROR(r.ReadU32(&name_len, "section name length"));
    if (name_len > kMaxCheckpointNameLen) {
      return r.Malformed("section #" + std::to_string(i) + ": name length cap");
    }
    QPS_RETURN_IF_ERROR(r.ReadString(name_len, &sec.name, "section name"));
    uint64_t payload_len = 0;
    QPS_RETURN_IF_ERROR(r.ReadU64(&payload_len, "section payload length"));
    if (payload_len > r.remaining()) {
      return r.Truncated("section '" + sec.name + "' payload");
    }
    QPS_RETURN_IF_ERROR(
        r.ReadString(static_cast<size_t>(payload_len), &sec.payload,
                     "section payload"));
    uint32_t stored = 0;
    QPS_RETURN_IF_ERROR(r.ReadU32(&stored, "section checksum"));
    if (stored != crc32::Compute(sec.payload.data(), sec.payload.size())) {
      return r.Malformed("section '" + sec.name + "': checksum mismatch");
    }
    out->sections.push_back(std::move(sec));
  }
  if (r.remaining() != 4) {
    return r.Malformed("trailing garbage after last section");
  }
  return Status::OK();
}

/// Copies parsed tensors into module parameters by name, requiring every
/// module parameter to be present exactly once.
Status ApplyTensorsToModule(const NamedTensors& stored, Module* module,
                            const std::string& context) {
  auto params = module->Parameters();
  std::unordered_map<std::string, Var> by_name;
  for (auto& p : params) by_name[p.name] = p.var;

  std::unordered_set<std::string> seen;
  // Validate everything before mutating any parameter.
  for (const auto& [name, t] : stored) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::NotFound(context + ": parameter not in module: " + name);
    }
    const Tensor& dst = it->second->value;
    if (dst.rows() != t.rows() || dst.cols() != t.cols()) {
      return Status::InvalidArgument(
          context + ": shape mismatch for " + name + ": module " +
          std::to_string(dst.rows()) + "x" + std::to_string(dst.cols()) +
          " vs file " + std::to_string(t.rows()) + "x" +
          std::to_string(t.cols()));
    }
    if (!seen.insert(name).second) {
      return Status::InvalidArgument(context + ": duplicate tensor: " + name);
    }
  }
  if (seen.size() != by_name.size()) {
    for (const auto& p : params) {
      if (seen.count(p.name) == 0) {
        return Status::NotFound(context +
                                ": parameter missing from checkpoint: " + p.name);
      }
    }
  }
  for (const auto& [name, t] : stored) by_name[name]->value = t;
  return Status::OK();
}

std::vector<std::pair<std::string, const Tensor*>> ModuleTensors(
    const Module& module, const std::vector<NamedParam>& params) {
  (void)module;
  std::vector<std::pair<std::string, const Tensor*>> tensors;
  tensors.reserve(params.size());
  for (const auto& p : params) tensors.emplace_back(p.name, &p.var->value);
  return tensors;
}

}  // namespace

Status SaveModule(const Module& module, const std::string& path,
                  const ScalarEntries& extra) {
  const auto params = module.Parameters();
  const auto tensors = ModuleTensors(module, params);
  QPS_RETURN_IF_ERROR(ValidateWritableTensors(tensors));
  QPS_RETURN_IF_ERROR(ValidateWritableScalars(extra));
  std::vector<Section> sections;
  sections.push_back({kSectionTensors, kSecModel, TensorSectionPayload(tensors)});
  if (!extra.empty()) {
    sections.push_back({kSectionScalars, kSecExtra, ScalarSectionPayload(extra)});
  }
  return WriteCheckpoint(path, std::move(sections));
}

Status SaveModuleQuantized(const Module& module, const std::string& path,
                           const ScalarEntries& extra) {
  const auto targets = module.QuantTargets();
  if (targets.empty()) {
    return Status::InvalidArgument(
        "SaveModuleQuantized: module registers no quantizable weights");
  }

  // Quantized weights: reuse an attached slot (persist exactly what is
  // being served), else quantize on the fly without touching the module.
  NamedQuantTensors qtensors;
  std::unordered_set<std::string> quantized_names;
  qtensors.reserve(targets.size());
  for (const auto& t : targets) {
    if (t.name.size() > kMaxCheckpointNameLen) {
      return Status::InvalidArgument("quant tensor name too long: " + t.name);
    }
    const Tensor& w = t.weight->value;
    if (w.size() == 0 || w.size() > kMaxCheckpointTensorElems) {
      return Status::InvalidArgument("tensor too large to checkpoint: " + t.name);
    }
    QuantizedTensor q = t.slot->ready()
                            ? t.slot->stored
                            : QuantizeWeights(w, *t.scheme);
    QPS_RETURN_IF_ERROR(ValidateQuantizedTensor(q, "saving " + t.name));
    if (!quantized_names.insert(t.name).second) {
      return Status::InvalidArgument("duplicate quantizable weight: " + t.name);
    }
    qtensors.emplace_back(t.name, std::move(q));
  }

  // Everything not quantized stays f32 in the normal model section, so the
  // loader's full-coverage check keeps working.
  const auto params = module.Parameters();
  std::vector<std::pair<std::string, const Tensor*>> f32_tensors;
  f32_tensors.reserve(params.size());
  for (const auto& p : params) {
    if (quantized_names.count(p.name) == 0) {
      f32_tensors.emplace_back(p.name, &p.var->value);
    }
  }
  QPS_RETURN_IF_ERROR(ValidateWritableTensors(f32_tensors));
  QPS_RETURN_IF_ERROR(ValidateWritableScalars(extra));

  std::vector<std::pair<std::string, const QuantizedTensor*>> qrefs;
  qrefs.reserve(qtensors.size());
  for (const auto& [name, q] : qtensors) qrefs.emplace_back(name, &q);

  std::vector<Section> sections;
  sections.push_back(
      {kSectionTensors, kSecModel, TensorSectionPayload(f32_tensors)});
  sections.push_back(
      {kSectionQuantTensors, kSecModelInt8, QuantSectionPayload(qrefs)});
  if (!extra.empty()) {
    sections.push_back({kSectionScalars, kSecExtra, ScalarSectionPayload(extra)});
  }
  return WriteCheckpoint(path, std::move(sections));
}

Status LoadModule(Module* module, const std::string& path, ScalarEntries* extra) {
  QPS_ASSIGN_OR_RETURN(const std::string buf, io::ReadFileToString(path));
  const std::string context = "checkpoint " + path;
  if (buf.size() < 4) {
    return Status::InvalidArgument(context + ": too short for a magic");
  }
  uint32_t magic = 0;
  std::memcpy(&magic, buf.data(), 4);
  if (magic != kMagicV2) {
    return Status::InvalidArgument(context + ": bad magic");
  }
  ParsedCheckpoint parsed;
  QPS_RETURN_IF_ERROR(ParseV2(buf, context, &parsed));
  const Section* model = parsed.Find(kSecModel, kSectionTensors);
  if (model == nullptr) {
    return Status::InvalidArgument(context + ": no model section");
  }
  NamedTensors stored;
  QPS_RETURN_IF_ERROR(
      ParseTensorSection(model->payload, context + ": model", &stored));

  // Quant section: validate every record against a module target BEFORE
  // ApplyTensorsToModule mutates anything, so a bad quant checkpoint leaves
  // the module untouched. Dequantized copies join the f32 list to satisfy
  // the full-coverage check.
  NamedQuantTensors qstored;
  if (const Section* qsec = parsed.Find(kSecModelInt8, kSectionQuantTensors)) {
    QPS_RETURN_IF_ERROR(
        ParseQuantSection(qsec->payload, context + ": model_int8", &qstored));
  }
  std::unordered_map<std::string, const QuantTarget*> target_by_name;
  const auto targets = module->QuantTargets();
  for (const auto& t : targets) target_by_name[t.name] = &t;
  for (const auto& [name, q] : qstored) {
    auto it = target_by_name.find(name);
    if (it == target_by_name.end()) {
      return Status::NotFound(context +
                              ": quantized weight not quantizable in module: " +
                              name);
    }
    const Tensor& dst = it->second->weight->value;
    if (dst.rows() != q.rows || dst.cols() != q.cols) {
      return Status::InvalidArgument(
          context + ": shape mismatch for quantized " + name + ": module " +
          std::to_string(dst.rows()) + "x" + std::to_string(dst.cols()) +
          " vs file " + std::to_string(q.rows) + "x" + std::to_string(q.cols));
    }
    stored.emplace_back(name, Dequantize(q));
  }

  QPS_RETURN_IF_ERROR(ApplyTensorsToModule(stored, module, context));

  // Weights changed: any previously attached quantization is stale. A plain
  // f32 checkpoint leaves the module fully dequantized; a quant checkpoint
  // re-attaches exactly what the file carries.
  ClearModuleQuantization(module);
  for (auto& [name, q] : qstored) {
    const QuantTarget* t = target_by_name[name];
    *t->scheme = q.scheme;
    t->slot->stored = std::move(q);
    t->slot->packed = PackForGemm(t->slot->stored);
  }
  if (!qstored.empty()) {
    metrics::Registry::Global().GetGauge("qps.nn.int8.enabled")->Set(1.0);
  }

  if (extra != nullptr) {
    extra->clear();
    if (const Section* s = parsed.Find(kSecExtra, kSectionScalars)) {
      QPS_RETURN_IF_ERROR(
          ParseScalarSection(s->payload, context + ": extra", extra));
    }
  }
  return Status::OK();
}

Status SaveTrainingCheckpoint(const Module& module, const Optimizer& optimizer,
                              const TrainingState& state,
                              const std::string& path) {
  const auto params = module.Parameters();
  const auto model_tensors = ModuleTensors(module, params);
  QPS_RETURN_IF_ERROR(ValidateWritableTensors(model_tensors));

  std::vector<std::pair<std::string, const Tensor*>> opt_tensors;
  ScalarEntries opt_scalars;
  optimizer.ExportState(&opt_tensors, &opt_scalars);
  QPS_RETURN_IF_ERROR(ValidateWritableTensors(opt_tensors));
  QPS_RETURN_IF_ERROR(ValidateWritableScalars(opt_scalars));

  ScalarEntries train = state.extra;
  train.emplace_back("epoch", static_cast<double>(state.epoch));
  QPS_RETURN_IF_ERROR(ValidateWritableScalars(train));

  std::vector<Section> sections;
  sections.push_back(
      {kSectionTensors, kSecModel, TensorSectionPayload(model_tensors)});
  sections.push_back(
      {kSectionTensors, kSecOptimizer, TensorSectionPayload(opt_tensors)});
  sections.push_back({kSectionScalars, kSecOptimizerScalars,
                      ScalarSectionPayload(opt_scalars)});
  sections.push_back({kSectionScalars, kSecTrain, ScalarSectionPayload(train)});
  sections.push_back({kSectionRaw, kSecRng, RngSectionPayload(state.rng)});
  return WriteCheckpoint(path, std::move(sections));
}

Status LoadTrainingCheckpoint(Module* module, Optimizer* optimizer,
                              TrainingState* state, const std::string& path) {
  QPS_ASSIGN_OR_RETURN(const std::string buf, io::ReadFileToString(path));
  const std::string context = "training checkpoint " + path;
  if (buf.size() < 4) {
    return Status::InvalidArgument(context + ": too short for a magic");
  }
  uint32_t magic = 0;
  std::memcpy(&magic, buf.data(), 4);
  if (magic != kMagicV2) {
    return Status::InvalidArgument(
        context + ": not a v2 training checkpoint (bad magic)");
  }
  ParsedCheckpoint parsed;
  QPS_RETURN_IF_ERROR(ParseV2(buf, context, &parsed));

  const Section* model = parsed.Find(kSecModel, kSectionTensors);
  const Section* opt = parsed.Find(kSecOptimizer, kSectionTensors);
  const Section* opt_scalars = parsed.Find(kSecOptimizerScalars, kSectionScalars);
  const Section* train = parsed.Find(kSecTrain, kSectionScalars);
  const Section* rng = parsed.Find(kSecRng, kSectionRaw);
  if (model == nullptr || opt == nullptr || opt_scalars == nullptr ||
      train == nullptr || rng == nullptr) {
    return Status::InvalidArgument(context +
                                   ": missing training-state section");
  }

  NamedTensors model_tensors, opt_tensors;
  QPS_RETURN_IF_ERROR(
      ParseTensorSection(model->payload, context + ": model", &model_tensors));
  QPS_RETURN_IF_ERROR(
      ParseTensorSection(opt->payload, context + ": optimizer", &opt_tensors));
  ScalarEntries opt_scalar_entries, train_entries;
  QPS_RETURN_IF_ERROR(ParseScalarSection(
      opt_scalars->payload, context + ": optimizer_scalars", &opt_scalar_entries));
  QPS_RETURN_IF_ERROR(
      ParseScalarSection(train->payload, context + ": train", &train_entries));
  RngState rng_state;
  QPS_RETURN_IF_ERROR(ParseRngSection(rng->payload, context + ": rng", &rng_state));

  // All sections parsed and verified. Extract the train payload before any
  // mutation so a malformed train section cannot leave a half-applied load.
  ScalarEntries extra_entries;
  int64_t epoch = 0;
  bool have_epoch = false;
  for (const auto& [name, value] : train_entries) {
    if (name == "epoch") {
      epoch = static_cast<int64_t>(value);
      have_epoch = true;
    } else {
      extra_entries.emplace_back(name, value);
    }
  }
  if (!have_epoch) {
    return Status::InvalidArgument(context + ": train section has no epoch");
  }

  // Validate against the live module and optimizer. ApplyTensorsToModule
  // validates fully before touching a parameter, but ImportState can still
  // reject afterwards (e.g. a checkpoint saved with a different optimizer
  // type over the same weights), so snapshot the weights and roll them back
  // on failure — the load either applies completely or leaves both the
  // module and the optimizer untouched.
  const auto params = module->Parameters();
  std::vector<Tensor> weight_snapshot;
  weight_snapshot.reserve(params.size());
  for (const auto& p : params) weight_snapshot.push_back(p.var->value);

  QPS_RETURN_IF_ERROR(ApplyTensorsToModule(model_tensors, module, context));
  std::unordered_map<std::string, const Tensor*> opt_map;
  for (const auto& [name, t] : opt_tensors) opt_map[name] = &t;
  std::unordered_map<std::string, double> opt_scalar_map(
      opt_scalar_entries.begin(), opt_scalar_entries.end());
  if (Status st = optimizer->ImportState(opt_map, opt_scalar_map); !st.ok()) {
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].var->value = std::move(weight_snapshot[i]);
    }
    return st;
  }

  // Training resumes on fresh f32 weights; any attached inference
  // quantization is stale now.
  ClearModuleQuantization(module);

  state->epoch = epoch;
  state->extra = std::move(extra_entries);
  state->rng = rng_state;
  return Status::OK();
}

bool LooksLikeCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return in.gcount() == sizeof(magic) && magic == kMagicV2;
}

}  // namespace nn
}  // namespace qps
