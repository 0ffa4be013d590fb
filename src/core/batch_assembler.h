#ifndef KDDN_CORE_BATCH_ASSEMBLER_H_
#define KDDN_CORE_BATCH_ASSEMBLER_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "synth/cohort.h"

namespace kddn::core {

/// SplitMix64-style mixer deriving a per-example dropout seed from the
/// training seed, the epoch, and the example's position in the shuffled
/// order. Scheduling-independent by construction: the value depends on
/// *where* the example sits in the epoch, never on which thread runs it or
/// when its batch was assembled.
uint64_t MixDropoutSeed(uint64_t seed, uint64_t epoch, uint64_t position);

/// One assembled mini-batch, ready for the forward/backward workers: the
/// shuffle-order slice of examples, their per-position dropout seeds, their
/// 0/1 labels at the training horizon, and the chunk layout the gradient
/// reduction uses. Everything here is a pure function of (train split,
/// epoch order, seed, batch index), which is why assembling it on any
/// thread, at any time, cannot change a single trained bit.
struct PreparedBatch {
  int epoch = 0;
  size_t begin = 0;       // Offset of this batch in the epoch's order.
  size_t size = 0;        // Examples in this batch.
  size_t num_chunks = 0;  // ceil(size / grad_chunk_size).
  float inv_batch = 0.0f; // 1 / size (the mean-reduction factor).
  std::vector<const data::Example*> examples;  // Shuffle-order slice.
  std::vector<uint64_t> dropout_seeds;  // MixDropoutSeed(seed, epoch, pos).
  std::vector<int> labels;              // Label at the horizon, 0/1.
};

/// Pure, synchronous mini-batch assembly for core::Trainer (DESIGN.md §14).
///
/// The trainer always runs it as the "assemble batch k+1" root job of its
/// step graph, next to batch k's gradient chunks, so the executor overlaps
/// featurisation with the merge and optimizer step. Because a batch is a
/// pure function of (split, order, seed, index), that overlap cannot move a
/// trained bit; the committed training goldens in tests/pipeline_test.cc
/// pin the result.
class BatchAssembler {
 public:
  struct Options {
    size_t batch_size = 0;
    size_t chunk_size = 0;   // TrainOptions::grad_chunk_size.
    uint64_t seed = 0;       // TrainOptions::seed (dropout-seed mixing).
    synth::Horizon horizon = synth::Horizon::kInHospital;
  };

  /// `examples` must outlive the assembler; `options.batch_size` and
  /// `options.chunk_size` must be > 0.
  BatchAssembler(const std::vector<data::Example>* examples,
                 const Options& options);

  /// Batches per epoch over an order of `order_size` examples.
  size_t BatchesPerEpoch(size_t order_size) const;

  /// Materialises batch `index` of `order` (a shuffled index vector into the
  /// example split) into `*batch`. Thread-safe: const, touches only the
  /// output slot.
  void AssembleInto(PreparedBatch* batch, const std::vector<int>* order,
                    int epoch, size_t index) const;

 private:
  const std::vector<data::Example>* examples_;
  Options options_;
};

}  // namespace kddn::core

#endif  // KDDN_CORE_BATCH_ASSEMBLER_H_
