// Unit tests for the data model: triples, interning, Dataset construction,
// scopes/domains, TSV I/O, and train/test splits.
#include <cstdio>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/arena.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "model/dataset.h"
#include "model/dataset_io.h"
#include "model/split.h"
#include "model/triple.h"
#include "synth/generator.h"

namespace fuser {
namespace {

TEST(TripleTest, EqualityAndToString) {
  Triple a{"s", "p", "o"};
  Triple b{"s", "p", "o"};
  Triple c{"s", "p", "x"};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(TripleView(a).ToString(), "{s, p, o}");
}

TEST(TripleTest, HashSeparatesFields) {
  TripleHash h;
  // {"ab",""} vs {"a","b"}: the separator must keep these distinct.
  EXPECT_NE(h({"ab", "", "x"}), h({"a", "b", "x"}));
}

TEST(TripleDictionaryTest, InternsAndLooksUp) {
  StringInterner strings;
  TripleDictionary dict;
  dict.BindInterner(&strings);
  TripleId a = dict.Intern({"s", "p", "o"});
  TripleId b = dict.Intern({"s", "p", "o2"});
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern({"s", "p", "o"}), a);
  EXPECT_EQ(dict.Lookup({"s", "p", "o2"}), b);
  EXPECT_EQ(dict.Lookup({"nope", "p", "o"}), kInvalidTriple);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Get(a).object, "o");
}

/// A copy of `arena`'s serialized image, as a snapshot would hold it.
std::string ArenaImage(const StringArena& arena) {
  std::string image;
  arena.ForEachImageChunk(
      [&](const char* p, size_t n) { image.append(p, n); });
  return image;
}

TEST(StringInternerTest, MatchesAReferenceMapAcrossGrowth) {
  // The empty string, runs of one letter (each a prefix of the next, and
  // 600 of them over 255 tags, so some share a tag at different lengths),
  // then 200k more: the table grows from 64 slots many times over.
  std::vector<std::string> distinct = {""};
  for (size_t n = 1; n <= 600; ++n) distinct.push_back(std::string(n, 'q'));
  std::unordered_map<uint8_t, size_t> length_of_tag;
  bool tag_shared_across_lengths = false;
  for (size_t n = 1; n <= 600; ++n) {
    const uint8_t tag = SlotTag(StringInterner::Hash(distinct[n]));
    auto [it, fresh] = length_of_tag.emplace(tag, n);
    if (!fresh && it->second != n) tag_shared_across_lengths = true;
  }
  ASSERT_TRUE(tag_shared_across_lengths);
  for (size_t i = 0; i < 200000; ++i) {
    distinct.push_back("entity/" + std::to_string(i * 7919 % 1000003));
  }

  // Every string twice, in a shuffled order.
  std::vector<size_t> order;
  for (size_t i = 0; i < distinct.size(); ++i) {
    order.push_back(i);
    order.push_back(i);
  }
  Rng rng(7);
  rng.Shuffle(&order);

  StringInterner strings;
  EXPECT_FALSE(strings.Find("").valid());
  std::unordered_map<std::string, StringRef> reference;
  std::unordered_set<uint64_t> packed;
  for (size_t i : order) {
    const StringRef ref = strings.Intern(distinct[i]);
    auto [it, fresh] = reference.emplace(distinct[i], ref);
    if (fresh) {
      EXPECT_TRUE(packed.insert(ref.packed()).second) << distinct[i];
    } else {
      ASSERT_EQ(it->second, ref) << distinct[i];
    }
    ASSERT_EQ(strings.arena().View(ref), distinct[i]);
  }
  EXPECT_EQ(strings.size(), distinct.size());
  for (const auto& [text, ref] : reference) {
    ASSERT_EQ(strings.Find(text), ref) << text;
  }
  EXPECT_FALSE(strings.Find("qq-absent").valid());
  EXPECT_FALSE(strings.Find(std::string(601, 'q')).valid());
  EXPECT_GE(strings.table_bytes(), distinct.size() * 9);

  // A fresh interner over the saved image re-registers every ref (each
  // twice: the second is a no-op) and answers as the original did.
  const std::string image = ArenaImage(strings.arena());
  StringInterner attached(strings.arena().chunk_bytes());
  attached.mutable_arena()->AttachImage(image.data(), image.size());
  for (size_t i : order) attached.InsertExisting(reference.at(distinct[i]));
  EXPECT_EQ(attached.size(), distinct.size());
  for (const auto& [text, ref] : reference) {
    ASSERT_EQ(attached.Find(text), ref) << text;
    ASSERT_EQ(attached.Intern(text), ref) << text;
  }
  EXPECT_FALSE(attached.Find("qq-absent").valid());
  const StringRef fresh = attached.Intern("qq-absent");
  EXPECT_GE(fresh.offset(), image.size());
  EXPECT_EQ(attached.Find("qq-absent"), fresh);
}

TEST(TripleDictionaryTest, MatchesAReferenceMapAcrossGrowthAndRebuild) {
  // Fields repeat across triples (and two triples may differ in one field
  // only); every triple is interned twice.
  std::vector<Triple> distinct;
  for (size_t i = 0; i < 60000; ++i) {
    distinct.push_back({"s" + std::to_string(i % 7919),
                        "p" + std::to_string(i % 13),
                        i % 5 == 0 ? "" : "o" + std::to_string(i / 3)});
  }
  std::vector<size_t> order;
  for (size_t i = 0; i < distinct.size(); ++i) {
    order.push_back(i);
    order.push_back(i);
  }
  Rng rng(11);
  rng.Shuffle(&order);

  StringInterner strings;
  TripleDictionary dict;
  dict.BindInterner(&strings);
  std::unordered_map<Triple, TripleId, TripleHash> reference;
  for (size_t i : order) {
    const TripleId id = dict.Intern(distinct[i]);
    // Ids are dense, in first-occurrence order.
    auto [it, fresh] = reference.emplace(
        distinct[i], static_cast<TripleId>(reference.size()));
    ASSERT_EQ(id, it->second) << TripleView(distinct[i]).ToString();
    if (!fresh) continue;
    ASSERT_EQ(dict.Get(id), distinct[i]);
  }
  ASSERT_EQ(dict.size(), distinct.size());
  const Triple absent{"s1", "p1", "o-absent"};
  for (const auto& [triple, id] : reference) {
    ASSERT_EQ(dict.Lookup(triple), id) << TripleView(triple).ToString();
  }
  EXPECT_EQ(dict.Lookup(absent), kInvalidTriple);
  // Every field exists, but not in this combination.
  EXPECT_EQ(dict.Lookup({"s1", "p2", "o0"}), kInvalidTriple);

  // Attached columns over the saved arena image, then the lazy rebuild.
  const std::string image = ArenaImage(strings.arena());
  const std::vector<StringRef> subjects = dict.subjects().ToVector();
  const std::vector<StringRef> predicates = dict.predicates().ToVector();
  const std::vector<StringRef> objects = dict.objects().ToVector();
  StringInterner attached_strings(strings.arena().chunk_bytes());
  attached_strings.mutable_arena()->AttachImage(image.data(), image.size());
  TripleDictionary attached;
  attached.BindInterner(&attached_strings);
  attached.AttachColumns(subjects.data(), predicates.data(), objects.data(),
                         subjects.size());
  EXPECT_FALSE(attached.index_built());
  attached.BuildIndex();
  EXPECT_EQ(attached_strings.size(), strings.size());
  for (const auto& [triple, id] : reference) {
    ASSERT_EQ(attached.Lookup(triple), id) << TripleView(triple).ToString();
  }
  EXPECT_EQ(attached.Lookup(absent), kInvalidTriple);
  attached.EnsureOwned();
  EXPECT_EQ(attached.Intern(distinct[17]), reference.at(distinct[17]));
  EXPECT_EQ(attached.Intern(absent), distinct.size());
  EXPECT_EQ(attached.Lookup(absent), distinct.size());
}

Dataset MakeTinyDataset() {
  Dataset d;
  SourceId s0 = d.AddSource("alpha");
  SourceId s1 = d.AddSource("beta");
  TripleId t0 = d.AddTriple({"e1", "a", "v1"}, "d1");
  TripleId t1 = d.AddTriple({"e2", "a", "v2"}, "d1");
  TripleId t2 = d.AddTriple({"e3", "a", "v3"}, "d2");
  d.Provide(s0, t0);
  d.Provide(s0, t1);
  d.Provide(s1, t0);
  d.Provide(s1, t2);
  d.SetLabel(t0, true);
  d.SetLabel(t1, false);
  d.SetLabel(t2, true);
  EXPECT_TRUE(d.Finalize().ok());
  return d;
}

TEST(DatasetTest, BasicAccessors) {
  Dataset d = MakeTinyDataset();
  EXPECT_EQ(d.num_sources(), 2u);
  EXPECT_EQ(d.num_triples(), 3u);
  EXPECT_EQ(d.num_domains(), 2u);
  EXPECT_TRUE(d.provides(0, 0));
  EXPECT_FALSE(d.provides(0, 2));
  EXPECT_EQ(d.providers(0), (std::vector<SourceId>{0, 1}));
  EXPECT_EQ(d.providers(2), (std::vector<SourceId>{1}));
  EXPECT_EQ(d.label(0), Label::kTrue);
  EXPECT_EQ(d.label(1), Label::kFalse);
  EXPECT_EQ(d.num_true(), 2u);
  EXPECT_EQ(d.num_labeled(), 3u);
  EXPECT_EQ(d.output_size(0), 2u);
}

TEST(DatasetTest, DuplicateProvideIsIdempotent) {
  Dataset d;
  SourceId s = d.AddSource("src");
  TripleId t = d.AddTriple({"e", "a", "v"});
  d.Provide(s, t);
  d.Provide(s, t);
  ASSERT_TRUE(d.Finalize().ok());
  EXPECT_EQ(d.output_size(s), 1u);
  EXPECT_EQ(d.providers(t).size(), 1u);
}

TEST(DatasetTest, ReAddingTripleReturnsSameId) {
  Dataset d;
  d.AddSource("src");
  TripleId a = d.AddTriple({"e", "a", "v"}, "dom");
  TripleId b = d.AddTriple({"e", "a", "v"}, "other");
  EXPECT_EQ(a, b);
}

TEST(DatasetTest, ScopeFollowsDomains) {
  Dataset d = MakeTinyDataset();
  // alpha provides only in d1; beta provides in d1 and d2.
  EXPECT_TRUE(d.in_scope(0, 0));
  EXPECT_TRUE(d.in_scope(0, 1));
  EXPECT_FALSE(d.in_scope(0, 2));  // alpha has no triple in d2
  EXPECT_TRUE(d.in_scope(1, 2));
  EXPECT_EQ(d.in_scope_sources(2), (std::vector<SourceId>{1}));
  EXPECT_EQ(d.in_scope_sources(0), (std::vector<SourceId>{0, 1}));
}

TEST(DatasetTest, ProvidersAreAlwaysInScope) {
  Dataset d = MakeTinyDataset();
  for (TripleId t = 0; t < d.num_triples(); ++t) {
    for (SourceId s : d.providers(t)) {
      EXPECT_TRUE(d.in_scope(s, t));
    }
  }
}

TEST(DatasetTest, ProvidersMatchIncrementalInsertsAcrossSourceGroups) {
  // 130 sources fill three 64-source groups. Sources 100-129 register
  // after the first 1,500 triples exist and then also provide some of
  // them; one provide in seven is repeated.
  constexpr size_t kEarly = 100, kSources = 130, kTriples = 3001;
  std::vector<std::string> names;
  for (size_t s = 0; s < kSources; ++s) {
    names.push_back("src-" + std::to_string(s));
  }
  auto triple_of = [](size_t i) {
    return Triple{"e" + std::to_string(i % 997), "a",
                  "v" + std::to_string(i)};
  };
  auto domain_of = [](size_t i) { return "d" + std::to_string(i % 7); };

  // The (source, triple row) provides in call order.
  Rng rng(23);
  std::vector<std::pair<SourceId, size_t>> provides;
  for (size_t i = 0; i < kTriples; ++i) {
    const size_t sources = i < kTriples / 2 ? kEarly : kSources;
    provides.emplace_back(static_cast<SourceId>(i % sources), i);
    for (size_t s = 0; s < sources; ++s) {
      if (rng.NextBernoulli(0.08)) {
        provides.emplace_back(static_cast<SourceId>(s), i);
      }
    }
    if (i == kTriples / 2) {
      for (size_t j = 0; j < i; j += 3) {
        provides.emplace_back(static_cast<SourceId>(kEarly + j % 30), j);
      }
    }
  }

  Dataset built;
  std::vector<std::set<SourceId>> expected(kTriples);
  size_t next = 0;
  for (size_t s = 0; s < kEarly; ++s) built.AddSource(names[s]);
  for (size_t i = 0; i < kTriples; ++i) {
    if (i == kTriples / 2) {
      for (size_t s = kEarly; s < kSources; ++s) built.AddSource(names[s]);
    }
    ASSERT_EQ(built.AddTriple(triple_of(i), domain_of(i)), i);
    for (; next < provides.size() && provides[next].second <= i; ++next) {
      const auto [s, t] = provides[next];
      built.Provide(s, static_cast<TripleId>(t));
      if (next % 7 == 0) built.Provide(s, static_cast<TripleId>(t));
      expected[t].insert(s);
    }
  }
  for (; next < provides.size(); ++next) {
    const auto [s, t] = provides[next];
    built.Provide(s, static_cast<TripleId>(t));
    expected[t].insert(s);
  }
  ASSERT_TRUE(built.Finalize().ok());

  // The oracle: the same observations streamed into an empty dataset,
  // whose provider rows grow by sorted insertion.
  Dataset streamed;
  ASSERT_TRUE(streamed.Finalize(/*allow_empty=*/true).ok());
  ObservationBatch batch;
  batch.register_sources = names;
  for (const auto& [s, t] : provides) {
    batch.observations.push_back({names[s], triple_of(t), domain_of(t)});
  }
  DatasetDelta delta;
  ASSERT_TRUE(streamed.ApplyBatch(batch, &delta).ok());

  ASSERT_EQ(built.num_sources(), kSources);
  ASSERT_EQ(streamed.num_triples(), kTriples);
  for (TripleId t = 0; t < kTriples; ++t) {
    const std::vector<SourceId> row = built.providers(t).ToVector();
    ASSERT_EQ(row, std::vector<SourceId>(expected[t].begin(),
                                         expected[t].end()))
        << "triple " << t;
    ASSERT_EQ(row, streamed.providers(t).ToVector()) << "triple " << t;
  }
  for (SourceId s = 0; s < kSources; ++s) {
    ASSERT_EQ(built.output(s), streamed.output(s)) << "source " << s;
    EXPECT_EQ(built.output(s).num_words(), (kTriples + 63) / 64);
  }
  for (DomainId d = 0; d < built.num_domains(); ++d) {
    EXPECT_EQ(built.domain_sources_table().row(d).ToVector(),
              streamed.domain_sources_table().row(d).ToVector());
  }
  EXPECT_EQ(built.ContentFingerprint(), streamed.ContentFingerprint());
}

TEST(DatasetTest, FinalizeRejectsEmpty) {
  Dataset empty;
  EXPECT_FALSE(empty.Finalize().ok());
  Dataset no_triples;
  no_triples.AddSource("s");
  EXPECT_FALSE(no_triples.Finalize().ok());
}

TEST(DatasetTest, FinalizeTwiceFails) {
  Dataset d = MakeTinyDataset();
  EXPECT_EQ(d.Finalize().code(), StatusCode::kFailedPrecondition);
}

TEST(DatasetIoTest, RoundTrip) {
  Dataset d = MakeTinyDataset();
  std::string obs_path = testing::TempDir() + "/fuser_obs.tsv";
  std::string gold_path = testing::TempDir() + "/fuser_gold.tsv";
  ASSERT_TRUE(SaveObservations(d, obs_path).ok());
  ASSERT_TRUE(SaveGold(d, gold_path).ok());

  auto loaded = LoadDataset(obs_path, gold_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_sources(), d.num_sources());
  EXPECT_EQ(loaded->num_triples(), d.num_triples());
  EXPECT_EQ(loaded->num_true(), d.num_true());
  EXPECT_EQ(loaded->num_labeled(), d.num_labeled());
  EXPECT_EQ(loaded->num_domains(), d.num_domains());
  // Observation matrix must match triple-by-triple.
  for (TripleId t = 0; t < d.num_triples(); ++t) {
    const Triple& triple = d.triple(t);
    TripleId lt = loaded->FindTriple(triple);
    ASSERT_NE(lt, kInvalidTriple);
    EXPECT_EQ(loaded->label(lt), d.label(t)) << TripleView(triple).ToString();
    EXPECT_EQ(loaded->providers(lt).size(), d.providers(t).size());
  }
  std::remove(obs_path.c_str());
  std::remove(gold_path.c_str());
}

TEST(DatasetIoTest, AdversarialStringsRoundTrip) {
  // Strings a messy streaming frontend would ingest: tabs, quotes, embedded
  // newlines, leading '#', blank-ish values, empty domains.
  const std::vector<std::string> nasty = {
      "plain",          "with\ttab",      "with\nnewline", "#leading-hash",
      "say \"hi\"",     "",               "  padded  ",    "#",
      "multi\n\nblank", "quote\"\nmix\t", "trailing\t",    "\"quoted\"",
  };
  Dataset d;
  std::vector<SourceId> sources;
  for (size_t i = 0; i < nasty.size(); ++i) {
    sources.push_back(d.AddSource(nasty[i] + "/src" + std::to_string(i)));
  }
  // Every nasty string appears as subject, predicate, object, and domain
  // ("" = default domain stays a 4-field row).
  for (size_t i = 0; i < nasty.size(); ++i) {
    const std::string& domain = nasty[(i + 3) % nasty.size()];
    TripleId t = d.AddTriple(
        {nasty[i], nasty[(i + 1) % nasty.size()], std::to_string(i)}, domain);
    d.Provide(sources[i], t);
    d.Provide(sources[(i + 5) % sources.size()], t);
    if (i % 3 != 0) d.SetLabel(t, i % 2 == 0);
  }
  ASSERT_TRUE(d.Finalize().ok());

  std::string obs_path = testing::TempDir() + "/fuser_nasty_obs.tsv";
  std::string gold_path = testing::TempDir() + "/fuser_nasty_gold.tsv";
  ASSERT_TRUE(SaveObservations(d, obs_path).ok());
  ASSERT_TRUE(SaveGold(d, gold_path).ok());

  auto loaded = LoadDataset(obs_path, gold_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->num_sources(), d.num_sources());
  ASSERT_EQ(loaded->num_triples(), d.num_triples());
  EXPECT_EQ(loaded->num_domains(), d.num_domains());
  EXPECT_EQ(loaded->num_labeled(), d.num_labeled());
  EXPECT_EQ(loaded->num_true(), d.num_true());
  for (TripleId t = 0; t < d.num_triples(); ++t) {
    const Triple& triple = d.triple(t);
    TripleId lt = loaded->FindTriple(triple);
    ASSERT_NE(lt, kInvalidTriple) << TripleView(triple).ToString();
    EXPECT_EQ(loaded->label(lt), d.label(t)) << TripleView(triple).ToString();
    EXPECT_EQ(loaded->domain_name(loaded->domain(lt)),
              d.domain_name(d.domain(t)))
        << TripleView(triple).ToString();
    ASSERT_EQ(loaded->providers(lt).size(), d.providers(t).size())
        << TripleView(triple).ToString();
    for (size_t i = 0; i < d.providers(t).size(); ++i) {
      EXPECT_EQ(loaded->source_name(loaded->providers(lt)[i]),
                d.source_name(d.providers(t)[i]));
    }
  }
  std::remove(obs_path.c_str());
  std::remove(gold_path.c_str());
}

TEST(DatasetIoTest, LoadObservationBatchMatchesLoadDataset) {
  Dataset d = MakeTinyDataset();
  std::string obs_path = testing::TempDir() + "/fuser_batch_obs.tsv";
  std::string gold_path = testing::TempDir() + "/fuser_batch_gold.tsv";
  ASSERT_TRUE(SaveObservations(d, obs_path).ok());
  ASSERT_TRUE(SaveGold(d, gold_path).ok());

  auto batch = LoadObservationBatch(obs_path, gold_path);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->observations.size(), 4u);  // one row per observation
  EXPECT_EQ(batch->labels.size(), d.num_labeled());

  // Replaying the batch into an empty-but-seeded dataset reproduces the
  // original (streaming ingestion of the same files).
  Dataset replay;
  SourceId seed_source = replay.AddSource("seed");
  TripleId seed_triple = replay.AddTriple({"seed", "seed", "seed"});
  replay.Provide(seed_source, seed_triple);
  ASSERT_TRUE(replay.Finalize().ok());
  DatasetDelta delta;
  ASSERT_TRUE(replay.ApplyBatch(*batch, &delta).ok());
  EXPECT_EQ(replay.num_triples(), d.num_triples() + 1);
  EXPECT_EQ(replay.num_sources(), d.num_sources() + 1);
  EXPECT_EQ(replay.num_labeled(), d.num_labeled());
  std::remove(obs_path.c_str());
  std::remove(gold_path.c_str());
}

TEST(DatasetIoTest, LoadWithoutGoldLeavesUnlabeled) {
  Dataset d = MakeTinyDataset();
  std::string obs_path = testing::TempDir() + "/fuser_obs2.tsv";
  ASSERT_TRUE(SaveObservations(d, obs_path).ok());
  auto loaded = LoadDataset(obs_path, "");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_labeled(), 0u);
  std::remove(obs_path.c_str());
}

TEST(DatasetIoTest, RejectsMalformedRows) {
  std::string path = testing::TempDir() + "/fuser_bad.tsv";
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("src\tonly-two\n", f);
    fclose(f);
  }
  EXPECT_FALSE(LoadDataset(path, "").ok());
  std::remove(path.c_str());
}

TEST(DatasetIoTest, RejectsBadLabel) {
  std::string obs = testing::TempDir() + "/fuser_obs3.tsv";
  std::string gold = testing::TempDir() + "/fuser_gold3.tsv";
  {
    FILE* f = fopen(obs.c_str(), "w");
    fputs("src\te\ta\tv\n", f);
    fclose(f);
    f = fopen(gold.c_str(), "w");
    fputs("e\ta\tv\tmaybe\n", f);
    fclose(f);
  }
  EXPECT_FALSE(LoadDataset(obs, gold).ok());
  std::remove(obs.c_str());
  std::remove(gold.c_str());
}

TEST(SplitTest, FullGoldSplitCoversLabeled) {
  Dataset d = MakeTinyDataset();
  TrainTestSplit split = FullGoldSplit(d);
  EXPECT_EQ(split.train.Count(), d.num_labeled());
  EXPECT_EQ(split.test.Count(), d.num_labeled());
}

TEST(SplitTest, StratifiedSplitPartitionsLabeled) {
  Dataset d;
  SourceId s = d.AddSource("src");
  for (int i = 0; i < 100; ++i) {
    TripleId t = d.AddTriple({"e" + std::to_string(i), "a", "v"});
    d.Provide(s, t);
    d.SetLabel(t, i < 60);  // 60 true, 40 false
  }
  ASSERT_TRUE(d.Finalize().ok());
  Rng rng(5);
  auto split = StratifiedSplit(d, 0.5, &rng);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->train.Count(), 50u);
  EXPECT_EQ(split->test.Count(), 50u);
  // Disjoint and exhaustive over labeled triples.
  DynamicBitset overlap = split->train;
  overlap.AndWith(split->test);
  EXPECT_EQ(overlap.Count(), 0u);
  DynamicBitset all = split->train;
  all.OrWith(split->test);
  EXPECT_TRUE(all == d.labeled_mask());
  // Stratified: 30 true in each half.
  DynamicBitset train_true = split->train;
  train_true.AndWith(d.true_mask());
  EXPECT_EQ(train_true.Count(), 30u);
}

TEST(SplitTest, RejectsBadFraction) {
  Dataset d = MakeTinyDataset();
  Rng rng(1);
  EXPECT_FALSE(StratifiedSplit(d, 1.5, &rng).ok());
  EXPECT_FALSE(StratifiedSplit(d, -0.1, &rng).ok());
}

TEST(DatasetMemoryTest, ColumnarLayoutAtLeastHalvesTheLegacyFootprint) {
  // The layout this PR replaced stored every triple's strings in two
  // owning copies (the id -> Triple vector and the unordered_map key — the
  // double-store), plus one heap vector per provider list. Account for
  // that layout analytically with strict lower bounds (libstdc++ sizes:
  // 32-byte std::string, 24-byte vector header, hash node of next pointer
  // + cached hash + mapped id, one bucket pointer per element) and require
  // the columnar arena-backed dataset to come in at less than half of it.
  SyntheticConfig config = MakeIndependentConfig(
      /*num_sources=*/10, /*num_triples=*/30000, /*fraction_true=*/0.4,
      /*precision=*/0.7, /*recall=*/0.45, /*seed=*/101);
  config.num_domains = 16;
  auto dataset = GenerateSynthetic(config);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  const Dataset& ds = *dataset;
  const size_t m = ds.num_triples();
  ASSERT_GT(m, 10000u);

  size_t legacy_lower_bound = 0;
  legacy_lower_bound += m * 2 * sizeof(Triple);  // vector slot + map key
  legacy_lower_bound += m * 32;                  // hash node + bucket
  size_t string_heap = 0;
  for (TripleId t = 0; t < m; ++t) {
    const TripleView v = ds.triple(t);
    // Strings beyond the 15-byte SSO buffer heap-allocate — twice.
    for (std::string_view field : {v.subject, v.predicate, v.object}) {
      if (field.size() > 15) string_heap += 2 * (field.size() + 1);
    }
    legacy_lower_bound += 24 + sizeof(SourceId) * ds.providers(t).size();
  }
  legacy_lower_bound += string_heap;
  legacy_lower_bound += m * (sizeof(DomainId) + 1);  // domains + labels

  const DatasetMemoryStats stats = ds.MemoryStats();
  ASSERT_GT(stats.total_bytes, 0u);
  const double reduction = static_cast<double>(legacy_lower_bound) /
                           static_cast<double>(stats.total_bytes);
  EXPECT_GE(reduction, 2.0)
      << "columnar layout is " << stats.total_bytes / m
      << " bytes/triple vs a legacy lower bound of " << legacy_lower_bound / m
      << " bytes/triple";
}

}  // namespace
}  // namespace fuser
