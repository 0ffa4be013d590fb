#include "kb/concept_extractor.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"
#include "text/tokenizer.h"

namespace kddn::kb {
namespace {

/// NegEx-lite trigger words (lower-cased surface forms).
bool IsNegationTrigger(const std::string& token) {
  return token == "no" || token == "not" || token == "denies" ||
         token == "deny" || token == "without" || token == "negative" ||
         token == "absent" || token == "resolved" || token == "ruled";
}

/// True if any sentence-ending punctuation occurs in raw_text between byte
/// offsets [from, to).
bool CrossesSentenceBoundary(std::string_view raw_text, int from, int to) {
  for (int i = from; i < to && i < static_cast<int>(raw_text.size()); ++i) {
    const char c = raw_text[i];
    if (c == '.' || c == ';' || c == '!' || c == '?' || c == '\n') {
      return true;
    }
  }
  return false;
}

/// Marks mentions within the forward scope of a negation trigger.
void MarkNegations(std::string_view raw_text,
                   const std::vector<text::Token>& tokens,
                   const ExtractionOptions& options,
                   std::vector<Mention>* mentions) {
  for (Mention& mention : *mentions) {
    const int begin = mention.token_begin;
    const int window_start =
        std::max(0, begin - options.negation_scope_tokens);
    for (int t = begin - 1; t >= window_start; --t) {
      if (!IsNegationTrigger(tokens[t].text)) {
        continue;
      }
      if (!CrossesSentenceBoundary(raw_text, tokens[t].end,
                                   mention.char_begin)) {
        mention.negated = true;
      }
      break;  // Nearest candidate trigger decides.
    }
  }
}

}  // namespace

ConceptExtractor::ConceptExtractor(const KnowledgeBase* kb) : kb_(kb) {
  KDDN_CHECK(kb != nullptr);
  for (int ci = 0; ci < kb_->size(); ++ci) {
    const Concept& source = kb_->concepts()[ci];
    std::vector<std::string> forms = source.aliases;
    forms.push_back(ToLowerAscii(source.preferred_name));
    for (const std::string& form : forms) {
      std::vector<std::string> tokens = text::TokenizeWords(form);
      if (tokens.empty()) {
        continue;
      }
      AliasEntry entry;
      entry.lemmas = lemmatizer_.LemmatizeAll(tokens);
      entry.concept_index = ci;
      const std::string surface = Join(tokens, " ");
      max_alias_tokens_ =
          std::max(max_alias_tokens_, static_cast<int>(entry.lemmas.size()));
      std::vector<AliasEntry>& bucket = by_first_lemma_[entry.lemmas[0]];
      // Merge lemma-identical aliases of the same concept, keeping every
      // surface form so exact matches still score 1000.
      AliasEntry* existing_entry = nullptr;
      for (AliasEntry& existing : bucket) {
        if (existing.concept_index == ci && existing.lemmas == entry.lemmas) {
          existing_entry = &existing;
          break;
        }
      }
      if (existing_entry == nullptr) {
        entry.surfaces.push_back(surface);
        bucket.push_back(std::move(entry));
      } else if (std::find(existing_entry->surfaces.begin(),
                           existing_entry->surfaces.end(),
                           surface) == existing_entry->surfaces.end()) {
        existing_entry->surfaces.push_back(surface);
      }
    }
  }
  // Longest aliases first so the scan is greedy-longest.
  for (auto& [lemma, bucket] : by_first_lemma_) {
    std::stable_sort(bucket.begin(), bucket.end(),
                     [](const AliasEntry& a, const AliasEntry& b) {
                       return a.lemmas.size() > b.lemmas.size();
                     });
  }
}

std::vector<Mention> ConceptExtractor::Extract(
    std::string_view raw_text, const ExtractionOptions& options) const {
  const std::vector<text::Token> tokens = text::Tokenize(raw_text);
  std::vector<std::string> lemmas;
  lemmas.reserve(tokens.size());
  for (const text::Token& token : tokens) {
    lemmas.push_back(lemmatizer_.Lemma(token.text));
  }

  std::vector<Mention> mentions;
  const int n = static_cast<int>(tokens.size());
  int i = 0;
  while (i < n) {
    auto bucket_it = by_first_lemma_.find(lemmas[i]);
    const AliasEntry* best = nullptr;
    if (bucket_it != by_first_lemma_.end()) {
      for (const AliasEntry& entry : bucket_it->second) {
        const int len = static_cast<int>(entry.lemmas.size());
        if (i + len > n) {
          continue;
        }
        bool matches = true;
        for (int t = 1; t < len; ++t) {
          if (lemmas[i + t] != entry.lemmas[t]) {
            matches = false;
            break;
          }
        }
        if (matches) {
          best = &entry;
          break;  // Bucket is sorted longest-first.
        }
      }
    }
    if (best == nullptr) {
      ++i;
      continue;
    }
    const Concept& matched = kb_->concepts()[best->concept_index];
    const int len = static_cast<int>(best->lemmas.size());
    // Exact-surface matches score 1000 (MetaMap's maximum); matches that
    // required lemma normalisation ("coughs" -> "cough") score 900.
    std::vector<std::string> surface_tokens;
    for (int t = 0; t < len; ++t) {
      surface_tokens.push_back(tokens[i + t].text);
    }
    const std::string surface = Join(surface_tokens, " ");
    const bool exact = std::find(best->surfaces.begin(), best->surfaces.end(),
                                 surface) != best->surfaces.end();

    Mention mention;
    mention.cui = matched.cui;
    mention.token_begin = i;
    mention.token_length = len;
    mention.char_begin = tokens[i].begin;
    mention.char_end = tokens[i + len - 1].end;
    mention.score = exact ? 1000.0f : 900.0f;
    mention.semantic_type = matched.semantic_type;

    const bool keep =
        mention.score >= options.min_score &&
        (!options.filter_general ||
         IsClinicalSemanticType(mention.semantic_type));
    if (keep) {
      mentions.push_back(std::move(mention));
    }
    i += len;
  }

  if (options.detect_negation) {
    MarkNegations(raw_text, tokens, options, &mentions);
    if (options.filter_negated) {
      mentions.erase(std::remove_if(mentions.begin(), mentions.end(),
                                    [](const Mention& m) { return m.negated; }),
                     mentions.end());
    }
  }

  // The scan already emits mentions in position order; keep the explicit
  // stable sort to mirror the paper's Fig.-6 sort-by-position contract even
  // if future match strategies emit out of order.
  std::stable_sort(mentions.begin(), mentions.end(),
                   [](const Mention& a, const Mention& b) {
                     return a.token_begin < b.token_begin;
                   });
  return mentions;
}

std::vector<std::string> ConceptExtractor::CuiSequence(
    const std::vector<Mention>& mentions) {
  std::vector<std::string> cuis;
  cuis.reserve(mentions.size());
  for (const Mention& mention : mentions) {
    cuis.push_back(mention.cui);
  }
  return cuis;
}

std::vector<std::string> ConceptExtractor::ExtractCuiSequence(
    std::string_view raw_text, const ExtractionOptions& options) const {
  std::vector<Mention> mentions = Extract(raw_text, options);
  std::vector<std::string> cuis;
  cuis.reserve(mentions.size());
  for (Mention& mention : mentions) {
    cuis.push_back(std::move(mention.cui));
  }
  return cuis;
}

}  // namespace kddn::kb
