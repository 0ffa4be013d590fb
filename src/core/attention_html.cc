#include "core/attention_html.h"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "common/check.h"
#include "common/string_util.h"
#include "core/attention_mining.h"

namespace kddn::core {
namespace {

/// Background colour for a weight in [0,1] relative to the row maximum.
std::string CellStyle(float weight, float row_max) {
  const float intensity = row_max > 0.0f ? weight / row_max : 0.0f;
  const int alpha = static_cast<int>(std::min(1.0f, intensity) * 80.0f) + 10;
  return "background:rgba(178,34,52,0." +
         (alpha < 10 ? "0" + std::to_string(alpha) : std::to_string(alpha)) +
         ")";
}

std::string ConceptLabel(const kb::KnowledgeBase& kb, const std::string& cui) {
  const kb::Concept* entry = kb.FindByCui(cui);
  return entry == nullptr ? cui : entry->preferred_name;
}

std::string ConceptTitle(const kb::KnowledgeBase& kb, const std::string& cui) {
  const kb::Concept* entry = kb.FindByCui(cui);
  if (entry == nullptr) {
    return cui;
  }
  return cui + " — " + entry->definition;
}

}  // namespace

std::string EscapeHtml(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

void WriteAttentionHtml(const serve::FrozenModel& model,
                        const data::Example& example,
                        const text::Vocabulary& word_vocab,
                        const text::Vocabulary& concept_vocab,
                        const kb::KnowledgeBase& kb, std::ostream& out) {
  KDDN_CHECK(model.kind() == serve::FrozenModel::Kind::kAkDdn)
      << "attention maps need an AK-DDN snapshot, got " << model.name();
  KDDN_CHECK(!example.word_ids.empty() && !example.concept_ids.empty())
      << "attention maps need non-empty word and concept sequences";
  serve::FrozenModel::Workspace ws;
  const float risk = model.ScorePositive(example, &ws);
  const Tensor& word_to_concept = ws.word_to_concept;
  const int num_words = word_to_concept.dim(0);
  const int num_concepts = word_to_concept.dim(1);

  out << "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\n"
      << "<title>AK-DDN co-attention, patient " << example.patient_id
      << "</title>\n"
      << "<style>body{font-family:sans-serif;margin:24px}"
      << "table{border-collapse:collapse;margin:12px 0}"
      << "td,th{border:1px solid #ddd;padding:3px 6px;font-size:12px}"
      << "th{background:#f4f4f4}.w{font-weight:600}</style></head><body>\n";
  out << "<h1>AK-DDN co-attention — patient " << example.patient_id
      << "</h1>\n<p>Predicted death risk: <b>"
      << FormatDouble(100.0 * risk, 1) << "%</b> · " << num_words
      << " words × " << num_concepts << " concepts</p>\n";

  // Word -> concept heatmap.
  out << "<h2>Words attending to concepts (paper §V-1)</h2>\n<table>\n<tr>"
      << "<th>word \\ concept</th>";
  for (int j = 0; j < num_concepts; ++j) {
    const std::string& cui = concept_vocab.TokenOf(example.concept_ids[j]);
    out << "<th title=\"" << EscapeHtml(ConceptTitle(kb, cui)) << "\">"
        << EscapeHtml(ConceptLabel(kb, cui)) << "</th>";
  }
  out << "</tr>\n";
  for (int i = 0; i < num_words; ++i) {
    float row_max = 0.0f;
    for (int j = 0; j < num_concepts; ++j) {
      row_max = std::max(row_max, word_to_concept.at(i, j));
    }
    out << "<tr><td class=\"w\">"
        << EscapeHtml(word_vocab.TokenOf(example.word_ids[i])) << "</td>";
    for (int j = 0; j < num_concepts; ++j) {
      const float weight = word_to_concept.at(i, j);
      out << "<td style=\"" << CellStyle(weight, row_max) << "\" title=\""
          << FormatDouble(weight, 4) << "\">" << FormatDouble(weight, 2)
          << "</td>";
    }
    out << "</tr>\n";
  }
  out << "</table>\n";

  // Concept -> word top pairs.
  out << "<h2>Concepts attending to words (paper §V-2)</h2>\n<table>\n"
      << "<tr><th>CUI</th><th>concept</th><th>strongest words</th></tr>\n";
  const auto pairs =
      MinePairs(ws.concept_to_word, example, /*concept_rows=*/true,
                word_vocab, concept_vocab, kb, 3 * num_concepts);
  for (int j = 0; j < num_concepts; ++j) {
    const std::string& cui = concept_vocab.TokenOf(example.concept_ids[j]);
    out << "<tr><td>" << EscapeHtml(cui) << "</td><td title=\""
        << EscapeHtml(ConceptTitle(kb, cui)) << "\">"
        << EscapeHtml(ConceptLabel(kb, cui)) << "</td><td>";
    int shown = 0;
    for (const AttentionPair& pair : pairs) {
      if (pair.cui != cui || shown >= 3) {
        continue;
      }
      if (shown > 0) {
        out << ", ";
      }
      out << EscapeHtml(pair.word) << " (" << FormatDouble(pair.weight, 3)
          << ")";
      ++shown;
    }
    out << "</td></tr>\n";
  }
  out << "</table>\n</body></html>\n";
}

void WriteAttentionHtmlFile(const serve::FrozenModel& model,
                            const data::Example& example,
                            const text::Vocabulary& word_vocab,
                            const text::Vocabulary& concept_vocab,
                            const kb::KnowledgeBase& kb,
                            const std::string& path) {
  std::ofstream out(path);
  KDDN_CHECK(out.is_open()) << "cannot open " << path << " for writing";
  WriteAttentionHtml(model, example, word_vocab, concept_vocab, kb, out);
}

}  // namespace kddn::core
