// Snapshot persistence: the offline/online split made durable.
//
// A FusionEngine spends its expensive offline phase (quality estimation,
// correlation model, pattern grouping, per-method serving state) turning a
// dataset into a servable FusionSnapshot. SaveSnapshot writes that whole
// warm-start state — dataset included — to one compact binary file;
// LoadSnapshot re-materializes it; FusionEngine::WarmStart adopts it and
// publishes a servable snapshot without running any of the training
// pipeline. The contract (asserted by tests/persist_test.cc and
// bench/bench_persist.cc):
//
//   * Round-trip byte identity: a loaded snapshot's FusionService
//     Score/ScoreBatch/ScoreObservation answers and the warm engine's
//     Run/RunAll outputs equal the originating engine's exactly, for every
//     method.
//   * Streaming continuity: WarmStart followed by Update(batch) equals a
//     fresh Prepare followed by the same Update — the loaded state plugs
//     into the existing clone-on-write incremental paths unchanged.
//   * Robustness: a truncated, bit-flipped, or version-skewed file fails
//     with InvalidArgument; it never crashes and never loads silently
//     wrong state (every section is independently checksummed).
//
// On-disk layout (all integers little-endian, doubles raw IEEE-754 bits):
//
//   magic "FUSRSNAP" | u32 format_version | u32 section_count
//   section table: section_count x { u32 id, u32 reserved,
//                                    u64 offset, u64 size, u64 checksum }
//   u64 header_checksum            (FNV-1a 64 over everything above)
//   section payloads...            (each covered by its table checksum)
//
// Sections: ENGINE (options, train mask, quality, dataset fingerprint),
// DATASET (sources, triples, labels, domains, output bitsets), MODEL
// (clustering + per-cluster empirical pattern counts), GROUPING (distinct
// patterns + per-triple pattern ids, or two bitsets for a one-source
// cluster), SERVING (per-method posterior
// tables / dense score vectors). Readers skip unknown section ids, so new
// sections are additive; any change that would make an old reader load
// wrong state bumps kSnapshotFormatVersion instead. Each record inside a
// section is declared once, as a field list in persist/snapshot_fields.h;
// the DATASET section's columnar image, the header and section table, a
// GROUPING column and a SERVING posterior table are hand-written layouts.
#ifndef FUSER_PERSIST_SNAPSHOT_IO_H_
#define FUSER_PERSIST_SNAPSHOT_IO_H_

#include <memory>
#include <string>

#include "common/bitset.h"
#include "common/status.h"
#include "core/snapshot.h"
#include "model/dataset.h"

namespace fuser {

/// Bumped on any incompatible layout change; LoadSnapshot refuses files
/// from other versions (InvalidArgument, never a misparse).
/// Version 2: the DATASET section became a columnar aligned-span image
/// (arena bytes + raw ref/CSR/bitset arrays) that loads with bulk copies
/// or attaches zero-copy via mmap.
/// Version 3: the ENGINE section no longer carries the precrec-corr
/// worker-thread count (the engine always supplied its own), and its
/// options must pass ValidateEngineOptions.
/// Version 4: the ENGINE section drops the engine's thread count, so files
/// saved at any thread count are byte-identical, and three options that
/// left EngineOptions (the sum-over-supersets table bound, the
/// term-summation budget and the forced term-summation switch); the MODEL
/// section drops the model's and every cluster's alpha, smoothing and
/// scopes, which the decoder takes from the ENGINE section's ModelOptions.
/// Version 5: a SERVING entry drops its name, its decision threshold and
/// its pattern-based flag; the decoder validates the stored spec
/// (ValidateMethodSpec) and derives the name and the flag from it and the
/// method table.
/// Version 6: in the GROUPING section a one-source cluster stores two
/// bitsets (provided, and in-scope when scopes are on) instead of one u32
/// pattern id per triple; its code -> id table follows from its distinct
/// patterns.
inline constexpr uint32_t kSnapshotFormatVersion = 6;

/// How LoadSnapshot materializes the (large) DATASET section.
enum class AttachMode {
  /// Bulk-copy every column into owned memory; the full section checksum
  /// and the dataset content fingerprint are verified. The default.
  kCopy,
  /// Zero-copy: mmap the file and bind the dataset's columns to the
  /// mapping (copy-on-write — the first ApplyBatch promotes whatever it
  /// touches to owned memory). Only the section's meta checksum (sizes +
  /// name refs) is verified, skipping all O(num_triples) work: this is
  /// the trusted fast path whose time-to-servable stays in milliseconds
  /// at tens of millions of triples. The snapshot file must outlive the
  /// returned dataset (a private mapping pins the inode, so replacing
  /// the path via SaveSnapshot's atomic rename is safe; truncating or
  /// rewriting the file in place is not).
  kMmap,
  /// Like kMmap, but additionally verifies the full section checksum and
  /// the content fingerprint over the mapped bytes — attach semantics
  /// with kCopy-grade corruption detection.
  kMmapVerify,
};

struct LoadOptions {
  AttachMode attach = AttachMode::kCopy;
};

/// Everything LoadSnapshot re-materializes from a file. `snapshot` is a
/// fully servable FusionSnapshot (model/grouping/serving attached) whose
/// internal pointers refer to `dataset`; keep both alive together. Hand it
/// to FusionEngine::WarmStart on an engine constructed over
/// `dataset.get()` to resume serving and streaming.
struct LoadedSnapshot {
  /// Null when loaded via LoadSnapshotFor (the caller's dataset is used).
  std::unique_ptr<Dataset> dataset;
  /// The originating engine's effective training mask (what its scores
  /// were estimated from); becomes the warm engine's train_mask().
  DynamicBitset train_mask;
  std::shared_ptr<const FusionSnapshot> snapshot;
};

/// Writes `snapshot` plus the dataset and training mask it was estimated
/// from. The snapshot must belong to `dataset` at its current version
/// (save right after Prepare/Update/PublishSnapshot, before further
/// mutation). Only empirical correlation models can be persisted; a model
/// with caller-supplied (explicit) statistics returns Unimplemented. The
/// file is committed through persist::CommitFileAtomic (tmp file, fsync,
/// rename, directory fsync), so a crash mid-save never leaves a
/// half-written snapshot at `path`.
Status SaveSnapshot(const std::string& path, const Dataset& dataset,
                    const DynamicBitset& train_mask,
                    const FusionSnapshot& snapshot);

/// Reads a snapshot file, re-materializing the dataset and every saved
/// component. All sections are parsed and checksum-verified. Honors the
/// FUSER_FORCE_MMAP_ATTACH=1 environment variable by loading as if
/// `options.attach == AttachMode::kMmapVerify` (CI uses this to run the
/// whole suite over attached datasets).
StatusOr<LoadedSnapshot> LoadSnapshot(const std::string& path);

/// Reads a snapshot file with an explicit dataset attach mode.
StatusOr<LoadedSnapshot> LoadSnapshot(const std::string& path,
                                      const LoadOptions& options);

/// Attach-mode load for warm-starting over a dataset the process already
/// holds (FusionEngine::WarmStart(path) uses this): the DATASET section is
/// not re-materialized; instead the file's dataset fingerprint
/// (num_triples / num_sources / version) is verified against `dataset`,
/// and the loaded grouping/serving state is attached to it. A mismatch —
/// e.g. the dataset absorbed an Update after the snapshot was saved —
/// fails with InvalidArgument.
StatusOr<LoadedSnapshot> LoadSnapshotFor(const std::string& path,
                                         const Dataset& dataset);

}  // namespace fuser

#endif  // FUSER_PERSIST_SNAPSHOT_IO_H_
