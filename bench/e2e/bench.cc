#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "common/bit_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "trace.h"

namespace fuser {
namespace e2e {

void Result::Fail(const std::string& why, uint64_t count) {
  failed += count;
  if (std::find(failures.begin(), failures.end(), why) == failures.end()) {
    failures.push_back(why);
  }
}

TripleView RawCorpus::triple(size_t row) const {
  const char* base = text.data();
  const uint32_t s = text_offsets[2 * row];
  const uint32_t o = text_offsets[2 * row + 1];
  const uint32_t e = text_offsets[2 * row + 2];
  return TripleView(std::string_view(base + s, o - s), predicate,
                    std::string_view(base + o, e - o));
}

namespace {

void AppendRow(RawCorpus* raw, std::string_view subject,
               std::string_view object, uint16_t domain, Label label,
               const SourceId* providers, size_t num_providers) {
  if (raw->text_offsets.empty()) raw->text_offsets.push_back(0);
  if (raw->provider_offsets.empty()) raw->provider_offsets.push_back(0);
  raw->text.append(subject);
  raw->text_offsets.push_back(static_cast<uint32_t>(raw->text.size()));
  raw->text.append(object);
  raw->text_offsets.push_back(static_cast<uint32_t>(raw->text.size()));
  raw->domain.push_back(domain);
  raw->label.push_back(label);
  raw->providers.insert(raw->providers.end(), providers,
                        providers + num_providers);
  raw->provider_offsets.push_back(static_cast<uint32_t>(raw->providers.size()));
}

}  // namespace

SyntheticConfig LadderConfig(size_t num_sources, size_t universe,
                             double precision_lo, double precision_hi,
                             double recall_lo, double recall_hi,
                             uint64_t seed) {
  SyntheticConfig config =
      MakeIndependentConfig(num_sources, universe, /*fraction_true=*/0.4,
                            precision_lo, recall_lo, seed);
  for (size_t s = 0; s < num_sources; ++s) {
    config.sources[s].precision =
        precision_lo + (precision_hi - precision_lo) * (s % 7) / 6.0;
    config.sources[s].recall =
        recall_lo + (recall_hi - recall_lo) * (s % 5) / 4.0;
  }
  config.labeled_true = config.num_true / 10;
  config.labeled_false = config.num_false / 10;
  return config;
}

StatusOr<RawCorpus> GenerateRawCorpus(const SyntheticConfig& config,
                                      uint64_t shuffle_seed) {
  // Collect rows in generation order, then emit them permuted.
  RawCorpus gen;
  for (const SourceProfile& sp : config.sources) {
    gen.source_names.push_back(sp.name);
  }
  FUSER_RETURN_IF_ERROR(GenerateSyntheticStream(
      config, [&](const SyntheticTriple& t) -> Status {
        // Domain names in first-appearance order of the generator's stream.
        auto it = std::find(gen.domain_names.begin(), gen.domain_names.end(),
                            *t.domain);
        if (it == gen.domain_names.end()) {
          gen.domain_names.push_back(*t.domain);
          it = gen.domain_names.end() - 1;
        }
        const Label label = !t.labeled   ? Label::kUnknown
                            : t.is_true ? Label::kTrue
                                        : Label::kFalse;
        AppendRow(&gen, t.triple.subject, t.triple.object,
                  static_cast<uint16_t>(it - gen.domain_names.begin()), label,
                  t.providers->data(), t.providers->size());
        return Status::OK();
      }));

  std::vector<uint32_t> order(gen.rows());
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(shuffle_seed);
  rng.Shuffle(&order);

  RawCorpus raw;
  raw.source_names = gen.source_names;
  raw.domain_names = gen.domain_names;
  raw.text.reserve(gen.text.size());
  raw.text_offsets.reserve(gen.text_offsets.size());
  raw.domain.reserve(gen.rows());
  raw.label.reserve(gen.rows());
  raw.provider_offsets.reserve(gen.provider_offsets.size());
  raw.providers.reserve(gen.providers.size());
  for (uint32_t i : order) {
    const TripleView t = gen.triple(i);
    const uint32_t p = gen.provider_offsets[i];
    AppendRow(&raw, t.subject, t.object, gen.domain[i], gen.label[i],
              gen.providers.data() + p, gen.provider_offsets[i + 1] - p);
  }
  return raw;
}

StatusOr<Dataset> BuildDataset(const RawCorpus& corpus, size_t begin,
                               size_t end) {
  Dataset dataset;
  for (const std::string& name : corpus.source_names) dataset.AddSource(name);
  for (size_t row = begin; row < end; ++row) {
    const TripleId t =
        dataset.AddTriple(corpus.triple(row), corpus.domain_name(row));
    for (uint32_t p = corpus.provider_offsets[row];
         p < corpus.provider_offsets[row + 1]; ++p) {
      dataset.Provide(corpus.providers[p], t);
    }
    if (corpus.label[row] != Label::kUnknown) {
      dataset.SetLabel(t, corpus.label[row] == Label::kTrue);
    }
  }
  FUSER_RETURN_IF_ERROR(dataset.Finalize());
  return dataset;
}

ObservationBatch MakeBatch(const RawCorpus& corpus,
                           const std::vector<uint32_t>& rows) {
  ObservationBatch batch;
  for (uint32_t row : rows) {
    const Triple triple(corpus.triple(row));
    const std::string domain(corpus.domain_name(row));
    for (uint32_t p = corpus.provider_offsets[row];
         p < corpus.provider_offsets[row + 1]; ++p) {
      batch.observations.push_back(
          {corpus.source_names[corpus.providers[p]], triple, domain});
    }
    if (corpus.label[row] != Label::kUnknown) {
      batch.labels.push_back({triple, corpus.label[row] == Label::kTrue});
    }
  }
  return batch;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::min(n, std::max<size_t>(1, rank));
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

double ProcStatusMb(int pid, const char* field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : StrFormat("/proc/%d/status", pid);
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double mb = -1.0;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      mb = std::strtod(line + len + 1, nullptr) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

void ResetPeakRss() {
  // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux >= 4.0).
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

PassShape ShapeOf(const Dataset& dataset, const CorrelationModel& model,
                  const PatternGrouping& grouping) {
  PassShape shape;
  shape.bytes_per_triple =
      static_cast<double>(dataset.MemoryStats().total_bytes) /
      static_cast<double>(dataset.num_triples());
  shape.clusters = model.clustering.clusters.size();
  shape.distinct = grouping.TotalDistinct();
  return shape;
}

uint64_t HashScores(const std::vector<double>& scores, uint64_t seed) {
  return HashBytes64(scores.data(), scores.size() * sizeof(double), seed);
}

void FillLayers(const PassShape& shape, size_t skip, const char* parent_span,
                Result* result) {
  auto median_after_skip = [&](const std::string& name) {
    std::vector<double> d = SpanDurations(name.c_str());
    if (d.size() > skip) d.erase(d.begin(), d.begin() + skip);
    return Median(d);
  };
  double run_s = 0.0;
  for (const SpanStats& s : SummarizeSpans()) {
    if (s.name.rfind("core.run.", 0) == 0) run_s += median_after_skip(s.name);
  }
  MetricMap& l = result->layers;
  l["model.build_s"] = {Median(SpanDurations("model.build")), "s"};
  l["model.bytes_per_triple"] = {shape.bytes_per_triple, "B"};
  l["core.prepare_s"] = {median_after_skip("core.prepare"), "s"};
  l["core.model_s"] = {median_after_skip("core.model"), "s"};
  l["core.grouping_s"] = {median_after_skip("core.grouping"), "s"};
  l["core.run_s"] = {run_s, "s"};
  l["core.publish_s"] = {median_after_skip("core.publish"), "s"};
  l["core.clusters"] = {static_cast<double>(shape.clusters), "count"};
  l["core.distinct_patterns"] = {static_cast<double>(shape.distinct), "count"};
  result->stages["trace.coverage"] = {ChildCoverage(parent_span), "ratio"};
  result->stages["trace.spans"] = {static_cast<double>(SpanCount()), "count"};
}

}  // namespace e2e
}  // namespace fuser
