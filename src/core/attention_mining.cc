#include "core/attention_mining.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/check.h"
#include "common/string_util.h"
#include "core/trainer.h"

namespace kddn::core {
namespace {

/// One frozen forward; afterwards `ws` holds both co-attention maps.
void AttentionForward(const serve::FrozenModel& model,
                      const data::Example& example,
                      serve::FrozenModel::Workspace* ws) {
  KDDN_CHECK(model.kind() == serve::FrozenModel::Kind::kAkDdn)
      << "attention maps need an AK-DDN snapshot, got " << model.name();
  KDDN_CHECK(!example.word_ids.empty() && !example.concept_ids.empty())
      << "attention maps need non-empty word and concept sequences";
  model.Logits(example, ws);
}

}  // namespace

std::vector<AttentionPair> MinePairs(const Tensor& weights,
                                     const data::Example& example,
                                     bool concept_rows,
                                     const text::Vocabulary& word_vocab,
                                     const text::Vocabulary& concept_vocab,
                                     const kb::KnowledgeBase& kb, int top_k) {
  KDDN_CHECK_GT(top_k, 0);
  const std::vector<int>& word_ids = example.word_ids;
  const std::vector<int>& concept_ids = example.concept_ids;
  KDDN_CHECK_EQ(weights.rank(), 2);
  const int rows = weights.dim(0), cols = weights.dim(1);
  KDDN_CHECK_EQ(rows, static_cast<int>(concept_rows ? concept_ids.size()
                                                    : word_ids.size()));
  KDDN_CHECK_EQ(cols, static_cast<int>(concept_rows ? word_ids.size()
                                                    : concept_ids.size()));

  std::map<std::pair<std::string, std::string>, float> best;  // (cui, word).
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      const int concept_id = concept_rows ? concept_ids[i] : concept_ids[j];
      const int word_id = concept_rows ? word_ids[j] : word_ids[i];
      if (word_id == text::Vocabulary::kPadId ||
          word_id == text::Vocabulary::kUnkId ||
          concept_id == text::Vocabulary::kPadId ||
          concept_id == text::Vocabulary::kUnkId) {
        continue;
      }
      const std::string& cui = concept_vocab.TokenOf(concept_id);
      const std::string& word = word_vocab.TokenOf(word_id);
      auto key = std::make_pair(cui, word);
      auto it = best.find(key);
      const float weight = weights.at(i, j);
      if (it == best.end() || it->second < weight) {
        best[key] = weight;
      }
    }
  }

  std::vector<AttentionPair> pairs;
  for (const auto& [key, weight] : best) {
    AttentionPair pair;
    pair.cui = key.first;
    pair.word = key.second;
    pair.weight = weight;
    if (const kb::Concept* entry = kb.FindByCui(key.first)) {
      pair.concept_name = entry->preferred_name;
      pair.definition = entry->definition;
    }
    pairs.push_back(std::move(pair));
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const AttentionPair& a, const AttentionPair& b) {
              if (a.weight != b.weight) {
                return a.weight > b.weight;
              }
              return std::tie(a.cui, a.word) < std::tie(b.cui, b.word);
            });
  if (static_cast<int>(pairs.size()) > top_k) {
    pairs.resize(top_k);
  }
  return pairs;
}

std::vector<AttentionPair> MineWordBasedPairs(
    const serve::FrozenModel& model, const data::Example& example,
    const text::Vocabulary& word_vocab, const text::Vocabulary& concept_vocab,
    const kb::KnowledgeBase& kb, int top_k) {
  serve::FrozenModel::Workspace ws;
  AttentionForward(model, example, &ws);
  return MinePairs(ws.concept_to_word, example, /*concept_rows=*/true,
                   word_vocab, concept_vocab, kb, top_k);
}

std::vector<AttentionPair> MineConceptBasedPairs(
    const serve::FrozenModel& model, const data::Example& example,
    const text::Vocabulary& word_vocab, const text::Vocabulary& concept_vocab,
    const kb::KnowledgeBase& kb, int top_k) {
  serve::FrozenModel::Workspace ws;
  AttentionForward(model, example, &ws);
  return MinePairs(ws.word_to_concept, example, /*concept_rows=*/false,
                   word_vocab, concept_vocab, kb, top_k);
}

const data::Example* SelectCase(models::AkDdn* model,
                                const std::vector<data::Example>& split,
                                synth::Horizon horizon, bool positive) {
  KDDN_CHECK(model != nullptr);
  // Only the requested class is scored, in parallel across examples;
  // Trainer::Scores gives the same bits as PredictPositiveProbability.
  std::vector<const data::Example*> cases;
  std::vector<data::Example> examples;
  for (const data::Example& example : split) {
    if (example.Label(horizon) == positive) {
      cases.push_back(&example);
      examples.push_back(example);
    }
  }
  const std::vector<float> scores = Trainer::Scores(model, examples);
  const data::Example* best = nullptr;
  float best_score = positive ? -1.0f : 2.0f;
  for (size_t i = 0; i < cases.size(); ++i) {
    const float score = scores[i];
    const bool correct = positive ? score >= 0.5f : score < 0.5f;
    if (!correct) {
      continue;
    }
    if ((positive && score > best_score) || (!positive && score < best_score)) {
      best_score = score;
      best = cases[i];
    }
  }
  return best;
}

std::string FormatPairsTable(const std::string& title,
                             const std::vector<AttentionPair>& pairs) {
  std::ostringstream out;
  out << title << "\n";
  out << "Concept   | Concept Definition               | Word         | "
         "Weight\n";
  out << "----------+----------------------------------+--------------+-------"
         "\n";
  for (const AttentionPair& pair : pairs) {
    std::string name = pair.concept_name;
    name.resize(32, ' ');
    std::string word = pair.word;
    word.resize(12, ' ');
    out << pair.cui << " | " << name << " | " << word << " | "
        << FormatDouble(pair.weight, 4) << "\n";
  }
  return out.str();
}

}  // namespace kddn::core
