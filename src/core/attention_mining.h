#ifndef KDDN_CORE_ATTENTION_MINING_H_
#define KDDN_CORE_ATTENTION_MINING_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "kb/knowledge_base.h"
#include "models/ak_ddn.h"
#include "serve/frozen_model.h"
#include "synth/cohort.h"
#include "text/vocabulary.h"

namespace kddn::core {

/// One row of the paper's Tables VII–X: a (concept, word) pair with its
/// attention weight, plus the concept's definition from the knowledge base.
struct AttentionPair {
  std::string cui;
  std::string concept_name;
  std::string definition;
  std::string word;
  float weight = 0.0f;
};

/// Important pairs in the *word-based interaction* (paper §V-2, Tables VII &
/// IX): each concept embedding queries the word matrix, so weights live in
/// the [m_c, m_w] map (Workspace::concept_to_word of one frozen forward).
/// Pairs are deduped by (CUI, word) keeping the maximum weight, sorted
/// descending, truncated to `top_k`. Pad/unknown tokens are skipped. `model`
/// must be an AK-DDN snapshot.
std::vector<AttentionPair> MineWordBasedPairs(
    const serve::FrozenModel& model, const data::Example& example,
    const text::Vocabulary& word_vocab, const text::Vocabulary& concept_vocab,
    const kb::KnowledgeBase& kb, int top_k);

/// Important pairs in the *concept-based interaction* (paper §V-1, Tables
/// VIII & X): each word queries the concept matrix ([m_w, m_c] weights,
/// Workspace::word_to_concept).
std::vector<AttentionPair> MineConceptBasedPairs(
    const serve::FrozenModel& model, const data::Example& example,
    const text::Vocabulary& word_vocab, const text::Vocabulary& concept_vocab,
    const kb::KnowledgeBase& kb, int top_k);

/// The miner behind both functions above, for a map a forward has already
/// computed: `weights` has one row per query and one column per value;
/// `concept_rows == true` means rows index concepts (word-based interaction),
/// otherwise rows index words (concept-based interaction).
std::vector<AttentionPair> MinePairs(const Tensor& weights,
                                     const data::Example& example,
                                     bool concept_rows,
                                     const text::Vocabulary& word_vocab,
                                     const text::Vocabulary& concept_vocab,
                                     const kb::KnowledgeBase& kb, int top_k);

/// Picks the paper's demonstration case from a split: the example the model
/// scores most confidently as positive (`positive=true`: died in hospital) or
/// negative, among correctly-predicted examples of that class. Returns null
/// if the split lacks the class.
const data::Example* SelectCase(models::AkDdn* model,
                                const std::vector<data::Example>& split,
                                synth::Horizon horizon, bool positive);

/// Renders a pair list in the layout of Tables VII–X.
std::string FormatPairsTable(const std::string& title,
                             const std::vector<AttentionPair>& pairs);

}  // namespace kddn::core

#endif  // KDDN_CORE_ATTENTION_MINING_H_
