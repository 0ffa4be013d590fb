// Regenerates Figures 10–12: 2-D t-SNE of word-level, concept-level, and
// joint patient representations from a trained AK-DDN, one figure per
// horizon. The paper's qualitative claim is that the *joint* representation
// clusters positives/negatives best; we quantify it with a class-separation
// score and print a coarse ASCII scatter.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"
#include "core/trainer.h"
#include "models/ak_ddn.h"
#include "serve/frozen_model.h"
#include "viz/tsne.h"

namespace {

using kddn::Tensor;

/// Rough 48x16 terminal scatter: '.' negative, 'x' positive, 'X' overlap.
void PrintScatter(const Tensor& embedding, const std::vector<int>& labels) {
  constexpr int kWidth = 48, kHeight = 16;
  const int n = embedding.dim(0);
  float min_x = embedding.at(0, 0), max_x = min_x;
  float min_y = embedding.at(0, 1), max_y = min_y;
  for (int i = 0; i < n; ++i) {
    min_x = std::min(min_x, embedding.at(i, 0));
    max_x = std::max(max_x, embedding.at(i, 0));
    min_y = std::min(min_y, embedding.at(i, 1));
    max_y = std::max(max_y, embedding.at(i, 1));
  }
  std::vector<std::string> grid(kHeight, std::string(kWidth, ' '));
  for (int i = 0; i < n; ++i) {
    const int col = std::min(
        kWidth - 1, static_cast<int>((embedding.at(i, 0) - min_x) /
                                     std::max(1e-6f, max_x - min_x) *
                                     (kWidth - 1)));
    const int row = std::min(
        kHeight - 1, static_cast<int>((embedding.at(i, 1) - min_y) /
                                      std::max(1e-6f, max_y - min_y) *
                                      (kHeight - 1)));
    char& cell = grid[row][col];
    const char mark = labels[i] == 1 ? 'x' : '.';
    if (cell == ' ') {
      cell = mark;
    } else if (cell != mark) {
      cell = 'X';
    }
  }
  for (const std::string& line : grid) {
    std::printf("  |%s|\n", line.c_str());
  }
}

}  // namespace

int main() {
  using namespace kddn;
  bench::PrintHeader(
      "Figures 10-12 — t-SNE of patient representations (AK-DDN on RAD)",
      "joint (word+concept) representation separates classes best");

  bench::BenchSetup setup = bench::MakeRadSetup(/*num_patients=*/1000,
                                                /*seed=*/99);

  const synth::Horizon horizons[] = {synth::Horizon::kInHospital,
                                     synth::Horizon::kWithin30Days,
                                     synth::Horizon::kWithinYear};
  const char* figure_names[] = {"Figure 10 (in-hospital)",
                                "Figure 11 (within 30 days)",
                                "Figure 12 (within a year)"};

  for (int h = 0; h < 3; ++h) {
    models::ModelConfig config;
    config.word_vocab_size = setup.dataset.word_vocab().size();
    config.concept_vocab_size = setup.dataset.concept_vocab().size();
    config.embedding_dim = 20;
    config.num_filters = 50;
    config.seed = 300 + h;
    models::AkDdn model(config);
    core::TrainOptions train_options;
    train_options.epochs = 5;
    train_options.batch_size = 32;
    train_options.seed = 400 + h;
    core::Trainer trainer(train_options);
    trainer.Train(&model, setup.dataset.train(), setup.dataset.validation(),
                  horizons[h]);

    // The paper embeds the first 1000 patients; we embed up to 400 test
    // patients (t-SNE here is exact O(n^2)).
    const int count =
        std::min<int>(300, static_cast<int>(setup.dataset.test().size()));
    // Pooled features from the frozen forward: ws.fused is the word-branch
    // half, then the concept-branch half.
    const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
    serve::FrozenModel::Workspace ws;
    const int branch_dim =
        config.num_filters * static_cast<int>(config.filter_widths.size());
    std::vector<int> labels;
    Tensor word_reps({count, branch_dim});
    Tensor concept_reps({count, branch_dim});
    Tensor joint_reps({count, 2 * branch_dim});
    for (int i = 0; i < count; ++i) {
      const data::Example& example = setup.dataset.test()[i];
      frozen.Logits(example, &ws);
      const float* fused = ws.fused.data();
      std::copy(fused, fused + branch_dim, &word_reps.at(i, 0));
      std::copy(fused + branch_dim, fused + 2 * branch_dim,
                &concept_reps.at(i, 0));
      std::copy(fused, fused + 2 * branch_dim, &joint_reps.at(i, 0));
      labels.push_back(example.Label(horizons[h]) ? 1 : 0);
    }

    viz::TsneOptions tsne_options;
    tsne_options.iterations = 250;
    tsne_options.perplexity = 25.0;
    tsne_options.seed = 500 + h;

    std::printf("\n--- %s: %d test patients ---\n", figure_names[h], count);
    double separation[3] = {0, 0, 0};
    const Tensor* reps[] = {&word_reps, &concept_reps, &joint_reps};
    const char* panel_names[] = {"(a) word-level", "(b) concept-level",
                                 "(c) joint"};
    for (int panel = 0; panel < 3; ++panel) {
      const Tensor embedding = viz::Tsne(*reps[panel], tsne_options);
      separation[panel] = viz::ClassSeparation(embedding, labels);
      std::printf("%s patient representation — class separation %.3f\n",
                  panel_names[panel], separation[panel]);
      PrintScatter(embedding, labels);
    }
    std::printf("shape: joint >= max(word, concept) separation: %s "
                "(%.3f vs %.3f / %.3f)\n",
                separation[2] >= std::max(separation[0], separation[1]) - 0.02
                    ? "OK"
                    : "MISMATCH",
                separation[2], separation[0], separation[1]);
  }
  return 0;
}
