#ifndef KDDN_KB_CONCEPT_EXTRACTOR_H_
#define KDDN_KB_CONCEPT_EXTRACTOR_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/fnv1a.h"
#include "kb/knowledge_base.h"
#include "text/lemmatizer.h"

namespace kddn::kb {

/// One concept occurrence in a note, in MetaMap's interface terms: CUI,
/// position, confidence score and semantic type (paper §VII-B2 extracts
/// "both UMLS concepts and their positions ... a confidence score and a
/// semantic type").
struct Mention {
  std::string cui;
  int token_begin = 0;   // Index of the first matched token.
  int token_length = 0;  // Number of matched tokens.
  int char_begin = 0;    // Byte offset in the raw text.
  int char_end = 0;
  float score = 0.0f;    // MetaMap-like confidence in [0, 1000].
  SemanticType semantic_type = SemanticType::kFinding;
  bool negated = false;  // Set only when ExtractionOptions::detect_negation.
};

/// Extraction knobs.
struct ExtractionOptions {
  /// Drop general-meaning semantic types (Fig. 1's middle table), keeping the
  /// clinical subset. This is the paper's semantic-type filter.
  bool filter_general = true;
  /// Minimum confidence score to keep a mention.
  float min_score = 0.0f;
  /// NegEx-lite extension (beyond the paper, whose MetaMap pipeline tags
  /// negated concepts like any other): mark mentions preceded by a negation
  /// trigger ("no", "denies", "without", "negative", ...) within
  /// `negation_scope_tokens` tokens and the same sentence.
  bool detect_negation = false;
  /// Additionally drop negated mentions from the result.
  bool filter_negated = false;
  int negation_scope_tokens = 6;
};

/// Stable 64-bit FNV-1a fingerprint of a raw note. Serving keys its
/// concept-extraction cache on this (extraction is a pure function of the
/// raw text), so identical notes across requests hit the cache. Inline: it
/// runs on every encode.
inline uint64_t NoteFingerprint(std::string_view raw_text) {
  return Fnv1a(raw_text.data(), raw_text.size());
}

/// Dictionary-based concept tagger standing in for MetaMap. Operates on the
/// *raw* text (stop words are not removed first — the paper notes UMLS
/// aliases may contain stop words, §VII-B2), matching the longest
/// lemma-normalised alias at each position so "cardiac tamponade" is tagged
/// as one concept rather than two words (the paper's §I motivating example).
///
/// Thread safety: after construction the extractor is immutable, so Extract /
/// ExtractCuiSequence may be called concurrently from any number of threads
/// on the same instance — the parallel dataset build (data::MortalityDataset,
/// DESIGN.md §10) and the serving path both rely on this.
class ConceptExtractor {
 public:
  /// `kb` must outlive the extractor.
  explicit ConceptExtractor(const KnowledgeBase* kb);

  /// Tags all concept mentions in the raw note, sorted by position. A concept
  /// appearing at several positions yields several mentions (Fig. 6
  /// "unfolding").
  std::vector<Mention> Extract(std::string_view raw_text,
                               const ExtractionOptions& options = {}) const;

  /// The position-ordered CUI sequence of a mention list — the concept-branch
  /// model input (Fig. 6's final sorted 2-tuples, projected to CUIs).
  static std::vector<std::string> CuiSequence(
      const std::vector<Mention>& mentions);

  /// Extract + CuiSequence in one call, moving the CUI strings out of the
  /// intermediate mention list instead of copying them. The per-patient hot
  /// path of the dataset build.
  std::vector<std::string> ExtractCuiSequence(
      std::string_view raw_text, const ExtractionOptions& options = {}) const;

  const KnowledgeBase& kb() const { return *kb_; }

 private:
  struct AliasEntry {
    std::vector<std::string> lemmas;  // Lemma-normalised alias tokens.
    int concept_index = 0;            // Into kb_->concepts().
    std::vector<std::string> surfaces;  // Original alias forms (for exact
                                        // scoring; one lemma sequence can
                                        // arise from several surfaces).
  };

  const KnowledgeBase* kb_;
  text::Lemmatizer lemmatizer_;
  // First lemma -> candidate aliases, longest first.
  std::unordered_map<std::string, std::vector<AliasEntry>> by_first_lemma_;
  int max_alias_tokens_ = 1;
};

}  // namespace kddn::kb

#endif  // KDDN_KB_CONCEPT_EXTRACTOR_H_
