#ifndef KDDN_CORE_ATTENTION_HTML_H_
#define KDDN_CORE_ATTENTION_HTML_H_

#include <iosfwd>
#include <string>

#include "data/dataset.h"
#include "kb/knowledge_base.h"
#include "serve/frozen_model.h"
#include "text/vocabulary.h"

namespace kddn::core {

/// Writes a self-contained HTML page visualising one patient's co-attention:
/// a word→concept heatmap (every word's distribution over the note's CUIs)
/// and a concept→word strip (each concept's strongest words), with tooltips
/// carrying the knowledge-base definitions. A browsable companion to the
/// paper's Tables VII–X. The risk and both maps come from one forward of
/// `model`, which must be an AK-DDN snapshot.
void WriteAttentionHtml(const serve::FrozenModel& model,
                        const data::Example& example,
                        const text::Vocabulary& word_vocab,
                        const text::Vocabulary& concept_vocab,
                        const kb::KnowledgeBase& kb, std::ostream& out);

/// File-path convenience wrapper.
void WriteAttentionHtmlFile(const serve::FrozenModel& model,
                            const data::Example& example,
                            const text::Vocabulary& word_vocab,
                            const text::Vocabulary& concept_vocab,
                            const kb::KnowledgeBase& kb,
                            const std::string& path);

/// HTML entity escaping (exposed for tests).
std::string EscapeHtml(const std::string& raw);

}  // namespace kddn::core

#endif  // KDDN_CORE_ATTENTION_HTML_H_
