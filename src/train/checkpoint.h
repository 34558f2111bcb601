#ifndef CAME_TRAIN_CHECKPOINT_H_
#define CAME_TRAIN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "eval/metrics.h"
#include "tensor/tensor.h"

namespace came::train {

/// In-memory image of everything a training run needs to resume
/// bitwise-identically: model parameters, Adam state, every Rng stream,
/// and the trainer's progress (epoch counter + best-validation state).
/// The Trainer assembles/applies it; Write/ReadCheckpoint give it a
/// durable on-disk form (see DESIGN.md §8 for the binary layout).
struct CheckpointState {
  /// Model parameters in Module::NamedParameters order.
  std::vector<std::pair<std::string, tensor::Tensor>> params;

  /// Adam state, aligned with `params`.
  int64_t adam_step = 0;
  std::vector<tensor::Tensor> adam_m;
  std::vector<tensor::Tensor> adam_v;

  /// Every Rng stream the training loop consumes, in Trainer order:
  /// shuffle rng, negative-sampler rng, model rng (dropout masks).
  std::vector<Rng::State> rng_streams;

  /// Trainer progress.
  int64_t epochs_run = 0;
  bool has_best = false;
  eval::Metrics best;
  /// Best-on-validation parameter snapshot, aligned with `params`; empty
  /// when has_best is false.
  std::vector<tensor::Tensor> best_snapshot;
};

/// Serialises `state` under `path` via write-to-temp + fsync + rename:
/// after a crash at any instant, `path` holds either the previous
/// checkpoint in full or the new one in full. Every section carries a
/// CRC32 so torn or bit-flipped files are rejected on load.
Status WriteCheckpoint(const std::string& path, const CheckpointState& state);

/// Parses a checkpoint written by WriteCheckpoint. Verifies the magic,
/// version, per-section CRCs and all structural bounds; any mismatch
/// yields a non-OK Status and leaves `*out` untouched.
Status ReadCheckpoint(const std::string& path, CheckpointState* out);

}  // namespace came::train

#endif  // CAME_TRAIN_CHECKPOINT_H_
