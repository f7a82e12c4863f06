// Copyright 2026 The QPSeeker Authors
//
// Durable (de)serialization of module parameters and training state.
//
// Checkpoint format v2 (DESIGN.md §11 has the byte-level diagram):
//
//   header:   magic "QPS\2" | version | section_count | reserved
//   section*: kind | name | payload_len | payload | payload CRC32
//   trailer:  CRC32 of every preceding byte
//
// Sections carry tensors (name + rows x cols + f32 data + per-tensor
// CRC32), named f64 scalars, or raw bytes. Writers serialize to memory and
// persist through io::AtomicWriteFile, so a crash mid-save leaves the
// previous checkpoint intact; readers verify the whole-file CRC, then every
// length, count, and per-record CRC against the actual byte budget — a
// corrupt, truncated, or adversarial file yields a clean Status naming the
// failing section/tensor, never a crash, hang, or unbounded allocation.

#ifndef QPS_NN_SERIALIZE_H_
#define QPS_NN_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nn/layers.h"
#include "nn/optim.h"
#include "util/rng.h"
#include "util/status.h"

namespace qps {
namespace nn {

/// Hard limits enforced by the loader (and respected by the writer).
constexpr size_t kMaxCheckpointNameLen = 4096;
constexpr int64_t kMaxCheckpointTensorElems = int64_t{1} << 27;  // 512 MiB f32
constexpr uint64_t kMaxCheckpointTensors = 1 << 20;

/// Named f64 sidecar values stored alongside module weights (e.g. the
/// label normalizer's fitted ranges).
using ScalarEntries = std::vector<std::pair<std::string, double>>;

/// Writes all parameters (name, shape, float32 data) plus optional scalar
/// entries to `path` in format v2, atomically and durably. Refuses to
/// overwrite an existing non-empty file that is not a QPSeeker checkpoint
/// (magic check), so a typo'd path cannot clobber foreign data.
Status SaveModule(const Module& module, const std::string& path,
                  const ScalarEntries& extra = {});

/// Like SaveModule, but every RegisterQuantizable weight is written as an
/// int8 quant record (dtype tag + scheme + scales + zero points + int8
/// data, CRC-covered) in a dedicated `model_int8` section; all remaining
/// parameters stay f32 in the normal `model` section. Weights whose slots
/// are already populated (QuantizeModule) are persisted exactly as served;
/// unpopulated ones are quantized on the fly without touching the module.
/// Fails if the module registers no quantizable weights.
Status SaveModuleQuantized(const Module& module, const std::string& path,
                           const ScalarEntries& extra = {});

/// Loads parameters by name into an already-constructed module. Fails —
/// naming the offending tensor — on any magic but v2's ("bad magic"), if a
/// stored name is missing from the module, a shape differs, any checksum or
/// bound is violated, or a module parameter is absent from the file. When
/// `extra` is non-null it receives the stored scalar entries.
///
/// A `model_int8` section, when present, is validated (dims, scheme,
/// finite positive scales, zero weight zero-points, CRCs), dequantized
/// into the f32 parameters, and attached to the module's quant slots so
/// inference runs int8 immediately; loading a plain f32 checkpoint clears
/// any previously attached quantization. Either the whole file applies or
/// the module is left untouched.
Status LoadModule(Module* module, const std::string& path,
                  ScalarEntries* extra = nullptr);

/// Everything beyond weights that a resumable training run needs.
struct TrainingState {
  int64_t epoch = 0;   ///< last completed epoch
  RngState rng;        ///< training stream position (shuffle + sampling)
  ScalarEntries extra; ///< caller state (normalizer, schedules, ...)
};

/// Serializes model + optimizer slots + RNG + epoch into one v2 file, so a
/// killed run resumes loss-continuous from its last good snapshot. Same
/// atomicity and overwrite-safety guarantees as SaveModule.
Status SaveTrainingCheckpoint(const Module& module, const Optimizer& optimizer,
                              const TrainingState& state,
                              const std::string& path);

/// Restores a checkpoint written by SaveTrainingCheckpoint. The module and
/// optimizer must be structurally identical to the saved ones.
Status LoadTrainingCheckpoint(Module* module, Optimizer* optimizer,
                              TrainingState* state, const std::string& path);

/// True when `path` starts with the checkpoint magic (existence and
/// readability included) — a cheap pre-check, not a validation.
bool LooksLikeCheckpoint(const std::string& path);

}  // namespace nn
}  // namespace qps

#endif  // QPS_NN_SERIALIZE_H_
