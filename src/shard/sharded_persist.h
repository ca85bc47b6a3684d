// Manifest persistence for the sharded engine.
//
// At K>1, ShardedFusionEngine::SaveSnapshot writes one ordinary snapshot
// file per shard (`<path>.shard<k>`, the full src/persist/ format:
// dataset, train mask, model, grouping, serving) plus a manifest at `path`
// tying them together. The manifest records everything the shard files
// cannot: the partition plan (shard count and domain-hash seed — loading
// under a different plan would silently misroute reads) and the per-shard
// local -> global triple id maps that let the router reassemble the global
// id space in its original order.
//
// Layout (little-endian, trailing FNV-1a checksum over everything before
// it; the fields after the version are ShardManifest's field list, see
// VisitFields below):
//
//   magic "FUSRMANI" | u32 manifest_version | u32 snapshot_format_version
//   u32 num_shards | u64 hash_seed | u64 num_triples | u64 num_sources
//   per shard: u64 count | count x u32 global ids (local id order)
//   u64 checksum
//
// At K=1 the engine saves one plain snapshot file instead, and
// ShardedFusionEngine::WarmStart tells the two apart by their magic
// (IsShardManifest); 1-shard manifests written before that still load.
//
// ReadShardManifest refuses a bad magic, an unknown manifest version, a
// snapshot format version other than the library's own (mixed-version
// stacks must not half-load), a corrupt checksum, and truncation.
#ifndef FUSER_SHARD_SHARDED_PERSIST_H_
#define FUSER_SHARD_SHARDED_PERSIST_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "model/triple.h"
#include "persist/binary_io.h"
#include "shard/partition.h"

namespace fuser {

inline constexpr uint32_t kShardManifestVersion = 1;

struct ShardManifest {
  /// persist::kSnapshotFormatVersion the shard files were written under.
  uint32_t snapshot_format_version = 0;
  ShardingOptions sharding;
  uint64_t num_triples = 0;
  uint64_t num_sources = 0;
  /// local_to_global[k][local] = global id of shard k's triple `local`.
  std::vector<std::vector<TripleId>> local_to_global;
};

/// The manifest's fields after its version, up to the id maps: one
/// count-prefixed u32 vector per shard follows, num_shards of them, so the
/// codec reads the maps once it has validated the shard count.
template <class V, class R>
persist::FieldsOf<R, ShardManifest> VisitFields(V& v, R& m) {
  v(m.snapshot_format_version);
  v(m.sharding.num_shards);
  v(m.sharding.hash_seed);
  v(m.num_triples);
  v(m.num_sources);
}

/// Path of shard k's snapshot file for the manifest at `path`.
std::string ShardSnapshotPath(const std::string& path, size_t shard);

/// Writes the manifest atomically and durably (persist::CommitFileAtomic).
Status WriteShardManifest(const std::string& path,
                          const ShardManifest& manifest);

/// Whether the file at `path` starts with the manifest magic (false for a
/// plain snapshot file, and for an unreadable one).
bool IsShardManifest(const std::string& path);

/// Reads and fully validates a manifest.
StatusOr<ShardManifest> ReadShardManifest(const std::string& path);

}  // namespace fuser

#endif  // FUSER_SHARD_SHARDED_PERSIST_H_
