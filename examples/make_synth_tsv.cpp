// Writes a synthetic observation/gold TSV pair so scripts (notably the CI
// network smoke, scripts/net_smoke.sh) can exercise the full TSV -> train
// -> --save -> --serve pipeline without shipping fixture data.
//
//   make_synth_tsv <observations.tsv> <gold.tsv> [num_triples] [num_sources] [seed]
//
// The generated corpus includes one positively correlated source group, so
// precrec-corr has correlations to exploit, and spans 8 domains, written as
// the observations' fifth column. Prints one JSON summary line.
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "model/dataset_io.h"
#include "synth/generator.h"

int main(int argc, char** argv) {
  using namespace fuser;
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <observations.tsv> <gold.tsv> [num_triples] "
                 "[num_sources] [seed]\n",
                 argv[0]);
    return 2;
  }
  const std::string obs_path = argv[1];
  const std::string gold_path = argv[2];
  // Universe size; triples nobody provides are dropped, so the realized
  // dataset is smaller than this.
  const size_t num_triples =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2000;
  const size_t num_sources =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 6;
  const uint64_t seed = argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 42;

  SyntheticConfig config = MakeIndependentConfig(
      num_sources, num_triples, /*fraction_true=*/0.4, /*precision=*/0.7,
      /*recall=*/0.4, seed);
  if (num_sources >= 3) config.groups_true = {{{0, 1, 2}, 0.8}};
  // Domains give the observations their fifth column, so a --shards=K
  // run on these files spreads the triples over several shards.
  config.num_domains = 8;
  auto dataset = GenerateSynthetic(config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  Status saved = SaveObservations(*dataset, obs_path);
  if (saved.ok()) saved = SaveGold(*dataset, gold_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf(
      "{\"make_synth_tsv\": {\"observations\": \"%s\", \"gold\": \"%s\", "
      "\"triples\": %zu, \"sources\": %zu, \"labeled\": %zu, "
      "\"seed\": %llu}}\n",
      obs_path.c_str(), gold_path.c_str(), dataset->num_triples(),
      dataset->num_sources(), dataset->num_labeled(),
      static_cast<unsigned long long>(seed));
  return 0;
}
