#ifndef KDDN_DATA_DATASET_H_
#define KDDN_DATA_DATASET_H_

#include <array>
#include <vector>

#include "kb/concept_extractor.h"
#include "synth/cohort.h"
#include "text/vocabulary.h"

namespace kddn::data {

/// One model-ready patient: encoded word and concept id sequences plus the
/// three horizon labels (problem definition §III-A: φ(<d_i, c_i>) -> y_i).
struct Example {
  int patient_id = 0;
  std::vector<int> word_ids;
  std::vector<int> concept_ids;
  std::array<bool, 3> labels = {false, false, false};  // Indexed by Horizon.

  bool Label(synth::Horizon horizon) const {
    return labels[static_cast<int>(horizon)];
  }
};

/// Assembly knobs.
struct DatasetOptions {
  int max_words = 256;       // Documents truncated for CNN input.
  int max_concepts = 96;
  double test_fraction = 0.3;        // Paper: 7:3 train/test split.
  double validation_fraction = 0.1;  // Paper: 10% of train for validation.
  uint64_t split_seed = 7;
  int min_word_count = 2;  // Vocabulary cutoff (fit on train only).
  /// Concept-extraction knobs (semantic-type filter, NegEx-lite negation
  /// handling); defaults reproduce the paper's MetaMap pipeline.
  kb::ExtractionOptions extraction;
};

/// Mean and standard deviation (Table III/IV rows).
struct MomentStats {
  double mean = 0.0;
  double stddev = 0.0;
};

/// Computes mean/stddev over integer counts.
MomentStats ComputeMoments(const std::vector<int>& counts);

/// The paper's full preprocessing pipeline over a synthetic cohort:
/// word side  — tokenize, lemmatize, remove stop words, build vocabulary
///              from the training split, encode (§VII-B1);
/// concept side — MetaMap-like extraction on *raw* text, semantic-type
///              filtering, position-sorted CUI sequence (§VII-B2);
/// then drop zero-concept patients, split 7:3 into train/test, and carve 10%
/// of train into a validation set.
///
/// Build fans the per-patient preprocessing (tokenize → lemmatize →
/// stopword filter → concept extraction) out over the shared
/// GlobalThreadPool as one job graph: workers write disjoint per-patient
/// slots and a single ordered merge job replays the patients in order
/// (exclusions, count vectors, split membership), so the built dataset is
/// byte-identical at every pool size. On a 1-thread pool the graph runs
/// inline — the serial loop. tests/pipeline_test.cc pins the result to a
/// committed golden fingerprint. DESIGN.md §10.
class MortalityDataset {
 public:
  static MortalityDataset Build(const synth::Cohort& cohort,
                                const kb::ConceptExtractor& extractor,
                                const DatasetOptions& options = {});

  const text::Vocabulary& word_vocab() const { return word_vocab_; }
  const text::Vocabulary& concept_vocab() const { return concept_vocab_; }
  const std::vector<Example>& train() const { return train_; }
  const std::vector<Example>& validation() const { return validation_; }
  const std::vector<Example>& test() const { return test_; }

  /// Patients dropped because extraction produced zero concepts (§VII-B2).
  int excluded_zero_concept() const { return excluded_zero_concept_; }

  /// Total retained patients across all splits.
  int num_patients() const {
    return static_cast<int>(train_.size() + validation_.size() + test_.size());
  }

  /// Positive counts over all retained patients (Table II).
  int CountPositive(synth::Horizon horizon) const;

  /// Raw (pre-truncation) words-per-patient moments (Table III/IV row 1).
  MomentStats WordStats() const { return ComputeMoments(raw_word_counts_); }

  /// Raw concepts-per-patient moments (Table III/IV row 2).
  MomentStats ConceptStats() const {
    return ComputeMoments(raw_concept_counts_);
  }

 private:
  text::Vocabulary word_vocab_;
  text::Vocabulary concept_vocab_;
  std::vector<Example> train_;
  std::vector<Example> validation_;
  std::vector<Example> test_;
  std::vector<int> raw_word_counts_;
  std::vector<int> raw_concept_counts_;
  int excluded_zero_concept_ = 0;
};

}  // namespace kddn::data

#endif  // KDDN_DATA_DATASET_H_
