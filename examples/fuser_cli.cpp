// Command-line driver: fuse a TSV observation dump with any method, and
// save/restore the trained engine state as a snapshot.
//
//   fuser_cli <observations.tsv> <gold.tsv> <method> [options]
//   fuser_cli <observations.tsv> <gold.tsv> --discover[=top_n] [--approx]
//   fuser_cli --load=SNAPSHOT <method> [options]
//   fuser_cli --load=SNAPSHOT --serve=PORT
//   fuser_cli --client=[HOST:]PORT [method]
//     method:  any method of the method table, or "runall"
//              (score the full lineup over one shared model and
//              pattern grouping); run with --help for the lineup
//     options: --alpha=0.5 --threshold=0.5 --scopes --cluster
//              --threads=N (0 = one per hardware thread)
//              --runall (same as method "runall")
//              --train-fraction=1.0 --seed=7 --out=fused.tsv
//              --save=PATH (persist the trained state as a snapshot)
//              --load=PATH (warm-start from a snapshot instead of TSVs;
//                           model parameters come from the file)
//              --shards=K (train K domain-hash engine shards behind the
//                           router, default 1 = one unpartitioned engine;
//                           scores stay byte-identical; --save keeps the
//                           layout, --load takes K from the snapshot)
//              --discover[=N] (report the N strongest / most
//                           anti-correlated source pairs instead of fusing)
//              --approx[=K] (discover with the bottom-K correlation sketch
//                           + exact-oracle rescore instead of the exact
//                           O(S^2 * m) pass)
//              --serve=PORT (serve the warm-started snapshot over TCP on
//                           127.0.0.1; port 0 picks an ephemeral port,
//                           announced as "listening on port N"; SIGTERM or
//                           SIGINT drains and exits 0; requires --load)
//              --client=[HOST:]PORT (probe a running --serve process:
//                           Stats + a small ScoreBatch + a Score
//                           cross-check, then exit)
//
// Unknown flags are an error (exit code 2), not silently ignored. Prints
// evaluation metrics on the gold standard, one machine-parseable JSON
// summary line (the last stdout line, `{"fuser_cli": ...}`), and
// (optionally) writes per-triple probabilities.
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/string_util.h"
#include "core/correlation.h"
#include "core/engine.h"
#include "model/dataset_io.h"
#include "model/split.h"
#include "net/fusion_client.h"
#include "net/fusion_server.h"
#include "persist/snapshot_io.h"
#include "shard/partition.h"
#include "shard/sharded_dataset.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_service.h"
#include "stats/correlation_sketch.h"

namespace {

/// Set by SIGINT/SIGTERM so --serve can drain and exit cleanly.
volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void HandleStopSignal(int) { g_stop_requested = 1; }

/// The method lineup, e.g. "union-K | 3estimates | ... | elastic-L", in
/// method table order.
std::string MethodLineup() {
  std::string lineup;
  for (const fuser::MethodInfo& method : fuser::AllMethods()) {
    if (!lineup.empty()) lineup += " | ";
    lineup += method.usage;
  }
  return lineup;
}

void Usage(const char* argv0, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s <observations.tsv> <gold.tsv> <method> [options]\n"
      "       %s --load=SNAPSHOT <method> [options]\n"
      "       %s --load=SNAPSHOT --serve=PORT\n"
      "       %s --client=[HOST:]PORT [method]\n"
      "  method: %s | runall\n"
      "options:\n"
      "  --alpha=A           a priori probability Pr(t) (default 0.5)\n"
      "  --threshold=T       decision threshold (default 0.5)\n"
      "  --scopes            open-world scopes (silence counts only in-domain)\n"
      "  --cluster           cluster sources by pairwise correlation\n"
      "  --threads=N         worker threads; 0 = one per hardware thread\n"
      "  --runall            score every registered method over one shared\n"
      "                      model and pattern grouping (RunAll)\n"
      "  --train-fraction=F  stratified train split; evaluate on the rest\n"
      "  --seed=S            split seed (default 7)\n"
      "  --out=PATH          write per-triple probabilities as TSV\n"
      "  --save=PATH         persist the trained engine state (dataset,\n"
      "                      model, grouping, serving tables) as a snapshot\n"
      "  --load=PATH         warm-start from a snapshot instead of TSVs;\n"
      "                      incompatible with flags that would retrain the\n"
      "                      model (--alpha/--scopes/--cluster/...)\n"
      "  --shards=K          partition the corpus by domain hash into K\n"
      "                      engine shards behind a scatter-gather router\n"
      "                      (default 1: one engine, no partition); scores\n"
      "                      are byte-identical at every K; K>1 rejects\n"
      "                      methods that cannot run sharded (cosine,\n"
      "                      3estimates, ltm, runall) and --discover; with\n"
      "                      --load, K comes from the snapshot\n"
      "  --discover[=N]      report the N (default 5) strongest and most\n"
      "                      anti-correlated source pairs instead of fusing\n"
      "                      (takes only <observations.tsv> <gold.tsv>)\n"
      "  --approx[=K]        with --discover: estimate pairwise joint counts\n"
      "                      from a bottom-K correlation sketch (default\n"
      "                      K=2048) and re-score the significant pairs with\n"
      "                      the exact oracle\n"
      "  --stats             print a JSON memory/layout report of the\n"
      "                      materialized dataset (arena / column / CSR /\n"
      "                      bitset bytes, storage mode) instead of fusing;\n"
      "                      takes <observations.tsv> <gold.tsv> or --load\n"
      "  --attach=MODE       with --load: how to materialize the snapshot's\n"
      "                      dataset section: copy (default), mmap\n"
      "                      (zero-copy attach), or mmap-verify (attach +\n"
      "                      full checksum)\n"
      "  --serve=PORT        serve the warm-started snapshot over TCP on\n"
      "                      127.0.0.1 (binary wire protocol, src/net/);\n"
      "                      PORT 0 picks an ephemeral port, announced on\n"
      "                      stdout as \"listening on port N\"; requires\n"
      "                      --load (a sharded snapshot's K shards serve\n"
      "                      behind the same port); SIGTERM/SIGINT drains\n"
      "                      in-flight requests and exits 0\n"
      "  --client=[HOST:]PORT probe a running --serve process: Stats, a\n"
      "                      small ScoreBatch, and a Score cross-checked\n"
      "                      against the batch (HOST defaults to\n"
      "                      127.0.0.1; optional positional method name,\n"
      "                      default precrec-corr)\n"
      "  --help              this message\n",
      argv0, argv0, argv0, argv0, MethodLineup().c_str());
}

/// NaN-safe JSON number (AUCs are NaN on single-class eval masks; JSON has
/// no NaN literal, so emit null).
std::string JsonNum(double v) {
  if (std::isnan(v)) return "null";
  return fuser::StrFormat("%.6f", v);
}

/// One human-readable block of ranked pairs for --discover.
void PrintPairList(const fuser::Dataset& ds, const char* title,
                   const std::vector<fuser::PairwiseCorrelation>& list) {
  std::printf("%s\n", title);
  if (list.empty()) {
    std::printf("  (none with enough support)\n");
    return;
  }
  for (const fuser::PairwiseCorrelation& pc : list) {
    std::printf("  %s ~ %s: C=%.3f C!=%.3f support=%zu%s\n",
                std::string(ds.source_name(pc.a)).c_str(),
                std::string(ds.source_name(pc.b)).c_str(),
                pc.factors.on_true, pc.factors.on_false, pc.support,
                pc.estimated ? " (estimated)" : "");
  }
}

/// Ranked pairs as a JSON array for the machine-parseable summary line.
/// `on_true` selects which factor the list was ranked by.
std::string PairListJson(const fuser::Dataset& ds, bool on_true,
                         const std::vector<fuser::PairwiseCorrelation>& list) {
  std::string out = "[";
  for (size_t i = 0; i < list.size(); ++i) {
    const fuser::PairwiseCorrelation& pc = list[i];
    if (i > 0) out += ", ";
    out += fuser::StrFormat(
        "{\"a\": \"%s\", \"b\": \"%s\", \"factor\": %s, \"support\": %zu}",
        std::string(ds.source_name(pc.a)).c_str(),
        std::string(ds.source_name(pc.b)).c_str(),
        JsonNum(on_true ? pc.factors.on_true : pc.factors.on_false).c_str(),
        pc.support);
  }
  return out + "]";
}

/// Reassembles the global-id-ordered dataset from a K>1 corpus (the shards
/// own the only copies), for evaluation and --out.
fuser::StatusOr<fuser::Dataset> MaterializeGlobal(
    const fuser::ShardedCorpus& corpus) {
  using namespace fuser;
  Dataset global;
  const Dataset& first = corpus.shard(0);
  for (SourceId s = 0; s < first.num_sources(); ++s) {
    global.AddSource(first.source_name(s));
  }
  for (TripleId t = 0; t < corpus.num_triples(); ++t) {
    const ShardLocation loc = corpus.Locate(t);
    const Dataset& shard = corpus.shard(loc.shard);
    const TripleId nt = global.AddTriple(
        shard.triple(loc.local), shard.domain_name(shard.domain(loc.local)));
    for (SourceId s : shard.providers(loc.local)) global.Provide(s, nt);
    if (shard.label(loc.local) != Label::kUnknown) {
      global.SetLabel(nt, shard.label(loc.local) == Label::kTrue);
    }
  }
  FUSER_RETURN_IF_ERROR(global.Finalize());
  return global;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fuser;

  EngineOptions options;
  double train_fraction = 1.0;
  uint64_t seed = 7;
  std::string out_path;
  std::string save_path;
  std::string load_path;
  bool runall = false;
  bool discover = false;
  bool stats_mode = false;
  bool serve_mode = false;
  size_t serve_port = 0;
  std::string client_addr;
  bool client_mode = false;
  std::string attach_flag;
  size_t shards = 1;
  size_t discover_top_n = 5;
  bool use_approx = false;
  ApproxOptions approx;
  std::vector<std::string> positionals;
  // Flags that pick model parameters; meaningless (and rejected) together
  // with --load, where those parameters come from the snapshot.
  std::vector<std::string> training_flags;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    double value = 0.0;
    if (arg == "--help" || arg == "-h") {
      Usage(argv[0], stdout);
      return 0;
    } else if (StartsWith(arg, "--alpha=") &&
               ParseDouble(arg.substr(8), &value)) {
      options.model.alpha = value;
      training_flags.push_back("--alpha");
    } else if (StartsWith(arg, "--threshold=") &&
               ParseDouble(arg.substr(12), &value)) {
      options.decision_threshold = value;
      training_flags.push_back("--threshold");
    } else if (arg == "--scopes") {
      options.model.use_scopes = true;
      training_flags.push_back("--scopes");
    } else if (arg == "--cluster") {
      options.model.enable_clustering = true;
      training_flags.push_back("--cluster");
    } else if (StartsWith(arg, "--threads=")) {
      size_t threads = 0;
      if (!ParseSizeT(arg.substr(10), &threads)) {
        std::fprintf(stderr, "bad value in: %s\n", arg.c_str());
        return 2;
      }
      options.num_threads = threads;
    } else if (arg == "--runall") {
      runall = true;
    } else if (StartsWith(arg, "--train-fraction=") &&
               ParseDouble(arg.substr(17), &value)) {
      train_fraction = value;
      training_flags.push_back("--train-fraction");
    } else if (StartsWith(arg, "--seed=")) {
      size_t s = 0;
      if (!ParseSizeT(arg.substr(7), &s)) {
        std::fprintf(stderr, "bad value in: %s\n", arg.c_str());
        return 2;
      }
      seed = s;
      training_flags.push_back("--seed");
    } else if (StartsWith(arg, "--out=")) {
      out_path = arg.substr(6);
    } else if (StartsWith(arg, "--save=")) {
      save_path = arg.substr(7);
    } else if (StartsWith(arg, "--load=")) {
      load_path = arg.substr(7);
    } else if (StartsWith(arg, "--shards=")) {
      if (!ParseSizeT(arg.substr(9), &shards) || shards == 0) {
        std::fprintf(stderr, "bad value in: %s\n", arg.c_str());
        return 2;
      }
      training_flags.push_back("--shards");
    } else if (arg == "--discover") {
      discover = true;
    } else if (StartsWith(arg, "--discover=")) {
      discover = true;
      if (!ParseSizeT(arg.substr(11), &discover_top_n) ||
          discover_top_n == 0) {
        std::fprintf(stderr, "bad value in: %s\n", arg.c_str());
        return 2;
      }
    } else if (arg == "--stats") {
      stats_mode = true;
    } else if (StartsWith(arg, "--serve=")) {
      serve_mode = true;
      if (!ParseSizeT(arg.substr(8), &serve_port) || serve_port > 65535) {
        std::fprintf(stderr, "bad value in: %s\n", arg.c_str());
        return 2;
      }
    } else if (StartsWith(arg, "--client=")) {
      client_mode = true;
      client_addr = arg.substr(9);
      if (client_addr.empty()) {
        std::fprintf(stderr, "bad value in: %s\n", arg.c_str());
        return 2;
      }
    } else if (StartsWith(arg, "--attach=")) {
      attach_flag = arg.substr(9);
      if (attach_flag != "copy" && attach_flag != "mmap" &&
          attach_flag != "mmap-verify") {
        std::fprintf(stderr, "bad value in: %s (see --help)\n", arg.c_str());
        return 2;
      }
    } else if (arg == "--approx") {
      use_approx = true;
    } else if (StartsWith(arg, "--approx=")) {
      use_approx = true;
      if (!ParseSizeT(arg.substr(9), &approx.sketch_size) ||
          approx.sketch_size == 0) {
        std::fprintf(stderr, "bad value in: %s\n", arg.c_str());
        return 2;
      }
    } else if (StartsWith(arg, "--")) {
      std::fprintf(stderr, "unknown option: %s (see --help)\n", arg.c_str());
      return 2;
    } else {
      positionals.push_back(arg);
    }
  }

  const bool load_mode = !load_path.empty();
  if (load_mode && !training_flags.empty()) {
    std::fprintf(stderr,
                 "%s cannot be combined with --load: model parameters and "
                 "the shard layout come from the snapshot\n",
                 training_flags.front().c_str());
    return 2;
  }
  if (use_approx && !discover) {
    std::fprintf(stderr, "--approx requires --discover (see --help)\n");
    return 2;
  }
  if (!attach_flag.empty() && !load_mode) {
    std::fprintf(stderr, "--attach requires --load (see --help)\n");
    return 2;
  }
  if (stats_mode && (discover || shards > 1)) {
    std::fprintf(stderr,
                 "--stats cannot be combined with --discover or --shards\n");
    return 2;
  }
  if (client_mode &&
      (serve_mode || load_mode || discover || stats_mode || shards > 1)) {
    std::fprintf(stderr,
                 "--client probes a running server and takes no other "
                 "mode flags (see --help)\n");
    return 2;
  }
  if (serve_mode) {
    if (!load_mode) {
      std::fprintf(stderr,
                   "--serve requires --load: the served snapshot is the "
                   "warm-start file (see --help)\n");
      return 2;
    }
    if (discover || stats_mode) {
      std::fprintf(stderr,
                   "--serve cannot be combined with --discover or --stats "
                   "(see --help)\n");
      return 2;
    }
    if (!out_path.empty() || !save_path.empty()) {
      std::fprintf(stderr,
                   "--serve cannot be combined with --out or --save\n");
      return 2;
    }
  }
  if (discover && shards > 1) {
    std::fprintf(stderr,
                 "--shards cannot be combined with --discover (see --help)\n");
    return 2;
  }
  Status valid_sharding =
      ValidateShardingOptions({static_cast<uint32_t>(shards)});
  if (!valid_sharding.ok()) {
    std::fprintf(stderr, "--shards: %s\n", valid_sharding.ToString().c_str());
    return 2;
  }

  // ---- Client probe mode: exercise a running --serve process end to end.
  if (client_mode) {
    if (positionals.size() > 1) {
      Usage(argv[0], stderr);
      return 2;
    }
    const std::string probe_method =
        positionals.empty() ? "precrec-corr" : positionals[0];
    std::string host = "127.0.0.1";
    std::string port_str = client_addr;
    const size_t colon = client_addr.rfind(':');
    if (colon != std::string::npos) {
      host = client_addr.substr(0, colon);
      port_str = client_addr.substr(colon + 1);
    }
    size_t port = 0;
    if (!ParseSizeT(port_str, &port) || port == 0 || port > 65535) {
      std::fprintf(stderr, "bad port in: --client=%s\n", client_addr.c_str());
      return 2;
    }
    net::FusionClient client;
    Status connected = client.Connect(host, static_cast<uint16_t>(port));
    if (!connected.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   connected.ToString().c_str());
      return 1;
    }
    auto stats = client.Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "stats failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "connected to %s:%zu: snapshot %llu, %llu triples, %llu sources, "
        "%llu shards\n",
        host.c_str(), port,
        static_cast<unsigned long long>(stats->snapshot_id),
        static_cast<unsigned long long>(stats->num_triples),
        static_cast<unsigned long long>(stats->num_sources),
        static_cast<unsigned long long>(stats->num_shards));
    const size_t probe_n =
        static_cast<size_t>(std::min<uint64_t>(8, stats->num_triples));
    std::string scores_json = "[";
    bool score_matches_batch = true;
    if (probe_n > 0) {
      std::vector<TripleId> ids(probe_n);
      std::iota(ids.begin(), ids.end(), 0);
      auto batch = client.ScoreBatch(probe_method, ids);
      if (!batch.ok()) {
        std::fprintf(stderr, "probe ScoreBatch(%s) failed: %s\n",
                     probe_method.c_str(),
                     batch.status().ToString().c_str());
        return 1;
      }
      auto one = client.Score(probe_method, ids[0]);
      if (!one.ok()) {
        std::fprintf(stderr, "probe Score(%s) failed: %s\n",
                     probe_method.c_str(), one.status().ToString().c_str());
        return 1;
      }
      score_matches_batch = one->score == batch->scores[0];
      for (size_t i = 0; i < batch->scores.size(); ++i) {
        if (i > 0) scores_json += ", ";
        scores_json += JsonNum(batch->scores[i]);
        std::printf("  triple %zu: %.6f\n", i, batch->scores[i]);
      }
      if (!score_matches_batch) {
        std::fprintf(stderr,
                     "probe failed: Score and ScoreBatch disagree on "
                     "triple 0\n");
        return 1;
      }
    }
    scores_json += "]";
    std::printf(
        "{\"fuser_cli\": {\"client\": true, \"host\": \"%s\", "
        "\"port\": %zu, \"method\": \"%s\", \"snapshot_id\": %llu, "
        "\"triples\": %llu, \"sources\": %llu, \"shards\": %llu, "
        "\"requests_served\": %llu, \"probe_scores\": %s, "
        "\"score_matches_batch\": %s}}\n",
        host.c_str(), port, probe_method.c_str(),
        static_cast<unsigned long long>(stats->snapshot_id),
        static_cast<unsigned long long>(stats->num_triples),
        static_cast<unsigned long long>(stats->num_sources),
        static_cast<unsigned long long>(stats->num_shards),
        static_cast<unsigned long long>(stats->requests_served),
        scores_json.c_str(), score_matches_batch ? "true" : "false");
    return 0;
  }

  // ---- Discovery mode: rank pairwise source correlations, no fusion.
  if (discover) {
    if (load_mode) {
      std::fprintf(stderr,
                   "--discover needs the labeled TSVs, not a snapshot\n");
      return 2;
    }
    if (positionals.size() != 2) {
      Usage(argv[0], stderr);
      return 2;
    }
    auto dataset = LoadDataset(positionals[0], positionals[1]);
    if (!dataset.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   dataset.status().ToString().c_str());
      return 1;
    }
    std::printf("loaded: %zu sources, %zu triples, %zu labeled (%zu true)\n",
                dataset->num_sources(), dataset->num_triples(),
                dataset->num_labeled(), dataset->num_true());
    std::vector<SourceId> all(dataset->num_sources());
    std::iota(all.begin(), all.end(), 0);
    JointStatsOptions stats;
    stats.alpha = options.model.alpha;
    stats.use_scopes = options.model.use_scopes;

    ApproxDiscoveryReport report;
    auto started = std::chrono::steady_clock::now();
    auto pairs =
        use_approx
            ? ComputePairwiseCorrelationsApprox(
                  *dataset, dataset->labeled_mask(), all, stats, approx,
                  &report)
            : ComputePairwiseCorrelations(*dataset, dataset->labeled_mask(),
                                          all, stats);
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    if (!pairs.ok()) {
      std::fprintf(stderr, "discovery failed: %s\n",
                   pairs.status().ToString().c_str());
      return 1;
    }
    if (use_approx) {
      std::printf(
          "sketch: %zu/%zu true and %zu/%zu false labels sampled, "
          "joint-rate error bound %.4f, %zu pairs re-scored exactly\n",
          report.sampled_true, report.total_true, report.sampled_false,
          report.total_false, report.error_bound, report.rescored_pairs);
    }
    CorrelationRanking ranking = RankCorrelations(*pairs, discover_top_n);
    PrintPairList(*dataset, "strongest positive correlation (true labels):",
                  ranking.strongest_true);
    PrintPairList(*dataset, "strongest anti-correlation (true labels):",
                  ranking.most_anti_true);
    PrintPairList(*dataset, "strongest positive correlation (false labels):",
                  ranking.strongest_false);
    PrintPairList(*dataset, "strongest anti-correlation (false labels):",
                  ranking.most_anti_false);
    std::printf("scored %zu pairs in %.3fs (%s)\n", pairs->size(), seconds,
                use_approx ? "sketch + exact oracle" : "exact");

    // Machine-parseable summary: always the last stdout line.
    std::printf(
        "{\"fuser_cli\": {\"discover\": true, \"sources\": %zu, "
        "\"triples\": %zu, \"labeled\": %zu, \"pairs\": %zu, "
        "\"approx\": %s, \"sketch_size\": %zu, \"error_bound\": %s, "
        "\"rescored_pairs\": %zu, \"seconds\": %s, "
        "\"strongest_true\": %s, \"most_anti_true\": %s, "
        "\"strongest_false\": %s, \"most_anti_false\": %s}}\n",
        dataset->num_sources(), dataset->num_triples(),
        dataset->num_labeled(), pairs->size(),
        use_approx ? "true" : "false",
        use_approx ? approx.sketch_size : size_t{0},
        use_approx ? JsonNum(report.error_bound).c_str() : "null",
        use_approx ? report.rescored_pairs : size_t{0},
        JsonNum(seconds).c_str(),
        PairListJson(*dataset, true, ranking.strongest_true).c_str(),
        PairListJson(*dataset, true, ranking.most_anti_true).c_str(),
        PairListJson(*dataset, false, ranking.strongest_false).c_str(),
        PairListJson(*dataset, false, ranking.most_anti_false).c_str());
    return 0;
  }

  // ---- Stats mode: materialize the dataset, report its layout, exit.
  if (stats_mode) {
    std::unique_ptr<Dataset> ds;
    if (load_mode) {
      if (!positionals.empty()) {
        Usage(argv[0], stderr);
        return 2;
      }
      LoadOptions lopts;
      if (attach_flag == "mmap") lopts.attach = AttachMode::kMmap;
      if (attach_flag == "mmap-verify") lopts.attach = AttachMode::kMmapVerify;
      auto loaded = attach_flag.empty() ? LoadSnapshot(load_path)
                                        : LoadSnapshot(load_path, lopts);
      if (!loaded.ok()) {
        std::fprintf(stderr, "load failed: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      ds = std::move(loaded->dataset);
    } else {
      if (positionals.size() != 2) {
        Usage(argv[0], stderr);
        return 2;
      }
      auto dataset = LoadDataset(positionals[0], positionals[1]);
      if (!dataset.ok()) {
        std::fprintf(stderr, "load failed: %s\n",
                     dataset.status().ToString().c_str());
        return 1;
      }
      ds = std::make_unique<Dataset>(std::move(*dataset));
    }
    const DatasetMemoryStats ms = ds->MemoryStats();
    std::printf(
        "{\"fuser_cli_stats\": {\"triples\": %zu, \"sources\": %zu, "
        "\"domains\": %zu, \"arena_bytes\": %zu, \"column_bytes\": %zu, "
        "\"csr_bytes\": %zu, \"bitset_bytes\": %zu, \"index_bytes\": %zu, "
        "\"owned_bytes\": %zu, \"mapped_bytes\": %zu, \"total_bytes\": %zu, "
        "\"bytes_per_triple\": %s, \"storage_mode\": \"%s\", "
        "\"attach\": \"%s\"}}\n",
        ms.num_triples, ms.num_sources, ms.num_domains, ms.arena_bytes,
        ms.column_bytes, ms.csr_bytes, ms.bitset_bytes, ms.index_bytes,
        ms.owned_bytes, ms.mapped_bytes, ms.total_bytes,
        JsonNum(ms.num_triples > 0
                    ? static_cast<double>(ms.total_bytes) /
                          static_cast<double>(ms.num_triples)
                    : 0.0)
            .c_str(),
        ms.storage_mode, attach_flag.empty() ? "copy" : attach_flag.c_str());
    return 0;
  }

  // --serve takes no method: the serving lineup is whatever PublishSnapshot
  // materialized into the warm-start file.
  if (positionals.size() != (serve_mode ? 0u : (load_mode ? 1u : 3u))) {
    Usage(argv[0], stderr);
    return 2;
  }
  const std::string method =
      serve_mode ? "" : (load_mode ? positionals[0] : positionals[2]);
  if (method == "runall") runall = true;

  // Resolve the lineup before touching any file: one named method, or
  // every method with its default parameters (--runall shares
  // the model and the pattern grouping across all of them via RunAll). A
  // named method alongside --runall keeps its explicit parameters — it
  // replaces its kind's default entry in the lineup (e.g. `elastic-5
  // --runall` runs the lineup with elastic at level 5).
  std::vector<MethodSpec> specs;
  if (method != "runall" && !serve_mode) {
    auto spec = ParseMethodSpec(method);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 2;
    }
    specs.push_back(*spec);
  }
  if (runall) {
    for (const MethodInfo& info : AllMethods()) {
      if (!specs.empty() && specs[0].kind == info.kind) continue;
      MethodSpec spec;
      spec.kind = info.kind;
      specs.push_back(spec);
    }
  }

  // ---- One engine for every path: warm-started from a snapshot (K from
  // the file), or built from the TSVs (K=1 adopts the dataset whole) and
  // prepared.
  std::unique_ptr<ShardedFusionEngine> engine;
  DynamicBitset eval;
  if (load_mode) {
    std::optional<LoadOptions> load;  // default: LoadSnapshot's own
    if (!attach_flag.empty()) {
      load.emplace();
      if (attach_flag == "mmap") load->attach = AttachMode::kMmap;
      if (attach_flag == "mmap-verify") load->attach = AttachMode::kMmapVerify;
    }
    auto warm = ShardedFusionEngine::WarmStart(load_path, options, load);
    if (!warm.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   warm.status().ToString().c_str());
      return 1;
    }
    engine = std::move(*warm);
    const ShardedCorpus& corpus = engine->corpus();
    size_t labeled = 0;
    for (size_t k = 0; k < corpus.num_shards(); ++k) {
      labeled += corpus.shard(k).num_labeled();
    }
    std::printf(
        "warm-started from %s: %zu sources, %zu triples, %zu labeled, "
        "%zu serving entries, %zu shards\n",
        load_path.c_str(), corpus.num_sources(), corpus.num_triples(),
        labeled, engine->CurrentSnapshot()->shards[0]->serving.size(),
        corpus.num_shards());
  } else {
    auto dataset = LoadDataset(positionals[0], positionals[1]);
    if (!dataset.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   dataset.status().ToString().c_str());
      return 1;
    }
    std::printf("loaded: %zu sources, %zu triples, %zu labeled (%zu true)\n",
                dataset->num_sources(), dataset->num_triples(),
                dataset->num_labeled(), dataset->num_true());
    DynamicBitset train = dataset->labeled_mask();
    eval = train;
    if (train_fraction < 1.0) {
      Rng rng(seed);
      auto split = StratifiedSplit(*dataset, train_fraction, &rng);
      if (!split.ok()) {
        std::fprintf(stderr, "%s\n", split.status().ToString().c_str());
        return 1;
      }
      train = split->train;
      eval = split->test;
    }
    auto corpus = ShardedCorpus::Partition(
        std::make_unique<Dataset>(std::move(*dataset)),
        {static_cast<uint32_t>(shards)});
    if (!corpus.ok()) {
      std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
      return 1;
    }
    auto created = ShardedFusionEngine::Create(std::move(*corpus), options);
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 1;
    }
    engine = std::move(*created);
    Status prepared = engine->Prepare(train);
    if (!prepared.ok()) {
      std::fprintf(stderr, "%s\n", prepared.ToString().c_str());
      return 1;
    }
  }

  // ---- Serve mode: front the warm-started engine with the TCP server and
  // run until SIGTERM/SIGINT, then drain and report.
  if (serve_mode) {
    ShardedFusionService service(engine.get());
    net::FusionServerOptions server_options;
    server_options.port = static_cast<uint16_t>(serve_port);
    if (options.num_threads > 0) {
      server_options.num_workers = options.num_threads;
    }
    net::FusionServer server(&service, server_options);
    Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "serve failed: %s\n", started.ToString().c_str());
      return 1;
    }
    // The handlers go in before the announcement: a supervisor may signal
    // the moment it reads the port line, and must get a drained exit 0.
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
    // Scripts wait for this line (and parse the ephemeral port from it).
    std::printf("listening on port %u\n", server.port());
    std::fflush(stdout);
    while (g_stop_requested == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.Stop();
    const net::ServerCounters counters = server.counters();
    std::printf(
        "{\"fuser_cli\": {\"serve\": true, \"port\": %u, \"shards\": %zu, "
        "\"connections_accepted\": %llu, \"requests_served\": %llu, "
        "\"errors_sent\": %llu, \"backlog_pauses\": %llu, "
        "\"connections_refused\": %llu}}\n",
        server.port(), engine->num_shards(),
        static_cast<unsigned long long>(counters.connections_accepted),
        static_cast<unsigned long long>(counters.requests_served),
        static_cast<unsigned long long>(counters.errors_sent),
        static_cast<unsigned long long>(counters.backlog_pauses),
        static_cast<unsigned long long>(counters.connections_refused));
    return 0;
  }

  if (engine->num_shards() > 1) {
    // The full lineup contains methods that couple triples across
    // the corpus; reject them (and --runall, which includes them) with a
    // usage error rather than failing mid-run.
    for (const MethodSpec& spec : specs) {
      const MethodInfo* info = FindMethod(spec.kind);
      if (info != nullptr && !info->shardable) {
        std::fprintf(stderr,
                     "%zu shards cannot run %s: the method couples triples "
                     "across the corpus%s\n",
                     engine->num_shards(), spec.Name().c_str(),
                     runall ? " (drop --runall and name a shardable method)"
                            : "");
        return 2;
      }
    }
  }

  // Evaluation and --out read the corpus in global id order: at K=1 that
  // is the one shard itself, at K>1 a copy reassembled from the shards.
  std::unique_ptr<Dataset> reassembled;
  if (engine->num_shards() > 1) {
    auto global = MaterializeGlobal(engine->corpus());
    if (!global.ok()) {
      std::fprintf(stderr, "%s\n", global.status().ToString().c_str());
      return 1;
    }
    reassembled = std::make_unique<Dataset>(std::move(*global));
  }
  const Dataset& dataset =
      reassembled != nullptr ? *reassembled : engine->corpus().shard(0);
  if (load_mode) {
    // Respect the persisted split: when the snapshot was trained on a
    // strict subset of the labels, evaluate on the held-out rest (as the
    // saving run did), not on train-contaminated metrics.
    eval = dataset.labeled_mask();
    if (!(engine->train_mask() == eval)) {
      eval.AndNotWith(engine->train_mask());
      std::printf("evaluating on the %zu labeled triples held out of the "
                  "snapshot's training set\n",
                  eval.Count());
    }
  }

  auto runs = engine->RunAll(specs);
  if (!runs.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 runs.status().ToString().c_str());
    return 1;
  }

  // Evaluate only reads scores and labels: an unprepared engine over the
  // global-id-ordered dataset does it for every K.
  const FusionEngine evaluator(&dataset, options);
  std::string json = "[";
  for (size_t i = 0; i < runs->size(); ++i) {
    const FusionRun& run = (*runs)[i];
    auto summary = evaluator.Evaluate(run, eval);
    if (!summary.ok()) {
      std::fprintf(stderr, "%s: %s\n", run.spec.Name().c_str(),
                   summary.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "%s: precision=%.3f recall=%.3f F1=%.3f AUC-PR=%.3f AUC-ROC=%.3f "
        "(%.3fs)\n",
        run.spec.Name().c_str(), summary->precision, summary->recall,
        summary->f1, summary->auc_pr, summary->auc_roc, summary->seconds);
    if (i > 0) json += ", ";
    json += StrFormat(
        "{\"method\": \"%s\", \"precision\": %s, \"recall\": %s, "
        "\"f1\": %s, \"auc_pr\": %s, \"auc_roc\": %s, \"seconds\": %s}",
        run.spec.Name().c_str(), JsonNum(summary->precision).c_str(),
        JsonNum(summary->recall).c_str(), JsonNum(summary->f1).c_str(),
        JsonNum(summary->auc_pr).c_str(), JsonNum(summary->auc_roc).c_str(),
        JsonNum(summary->seconds).c_str());
  }
  json += "]";

  if (!out_path.empty()) {
    // With a lineup, the written scores are the first method's (the
    // single-method invocation is the interesting case for --out).
    const FusionRun& run = (*runs)[0];
    std::vector<CsvRow> rows;
    for (TripleId t = 0; t < dataset.num_triples(); ++t) {
      const Triple& triple = dataset.triple(t);
      rows.push_back({triple.subject, triple.predicate, triple.object,
                      StrFormat("%.4f", run.scores[t])});
    }
    Status written = WriteCsvFile(out_path, rows, '\t');
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu scored triples to %s (method %s)\n", rows.size(),
                out_path.c_str(), run.spec.Name().c_str());
  }

  if (!save_path.empty()) {
    // Materialize serving state for the scored lineup, then persist the
    // whole warm-start package (dataset + model + grouping + serving): one
    // snapshot file at K=1, shard files plus a manifest at K>1.
    auto published = engine->PublishSnapshot(specs);
    if (!published.ok()) {
      std::fprintf(stderr, "publish failed: %s\n",
                   published.status().ToString().c_str());
      return 1;
    }
    Status saved = engine->SaveSnapshot(save_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("saved %zu shard snapshot(s) to %s (%zu serving entries)\n",
                engine->num_shards(), save_path.c_str(),
                (*published)->shards[0]->serving.size());
  }

  std::string shard_json = "[";
  for (size_t k = 0; k < engine->num_shards(); ++k) {
    if (k > 0) shard_json += ", ";
    shard_json += StrFormat("%zu", engine->corpus().shard(k).num_triples());
  }
  shard_json += "]";

  // Machine-parseable summary: always the last stdout line.
  std::printf(
      "{\"fuser_cli\": {\"sources\": %zu, \"triples\": %zu, "
      "\"labeled\": %zu, \"threads\": %zu, \"shards\": %zu, "
      "\"shard_triples\": %s, \"train_fraction\": %s, "
      "\"warm_start\": %s, \"methods\": %s}}\n",
      dataset.num_sources(), dataset.num_triples(), dataset.num_labeled(),
      options.num_threads, engine->num_shards(),
      shard_json.c_str(), JsonNum(train_fraction).c_str(),
      load_mode ? "true" : "false", json.c_str());
  return 0;
}
