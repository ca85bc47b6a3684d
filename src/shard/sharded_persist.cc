#include "shard/sharded_persist.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "persist/atomic_file.h"
#include "persist/binary_io.h"
#include "persist/snapshot_io.h"

namespace fuser {
namespace {

constexpr char kMagic[8] = {'F', 'U', 'S', 'R', 'M', 'A', 'N', 'I'};

}  // namespace

std::string ShardSnapshotPath(const std::string& path, size_t shard) {
  return path + ".shard" + std::to_string(shard);
}

bool IsShardManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[sizeof(kMagic)] = {};
  return in.read(magic, sizeof(magic)) &&
         std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

Status WriteShardManifest(const std::string& path,
                          const ShardManifest& manifest) {
  if (manifest.local_to_global.size() != manifest.sharding.num_shards) {
    return Status::InvalidArgument(
        "manifest shard count does not match its id maps");
  }
  persist::ByteSink sink;
  persist::FieldWriter write(&sink);
  sink.WriteRaw(kMagic, sizeof(kMagic));
  sink.WriteU32(kShardManifestVersion);
  write(manifest);
  for (const std::vector<TripleId>& map : manifest.local_to_global) {
    write(map);
  }
  sink.WriteU64(persist::Checksum64(sink.data().data(), sink.size()));
  const std::string& bytes = sink.data();
  return persist::CommitFileAtomic(path, [&](std::FILE* out) {
    if (std::fwrite(bytes.data(), 1, bytes.size(), out) != bytes.size()) {
      return Status::IoError("short write to shard manifest");
    }
    return Status::OK();
  });
}

StatusOr<ShardManifest> ReadShardManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::IoError("cannot open shard manifest: " + path);
  }
  const std::streamoff size = in.tellg();
  if (size < 0) {
    return Status::IoError("cannot stat shard manifest: " + path);
  }
  std::string bytes(static_cast<size_t>(size), '\0');
  in.seekg(0);
  if (!bytes.empty()) in.read(&bytes[0], size);
  if (!in) {
    return Status::IoError("cannot read shard manifest: " + path);
  }

  if (bytes.size() < sizeof(kMagic) + sizeof(uint64_t) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a shard manifest: " + path);
  }
  const size_t payload_size = bytes.size() - sizeof(uint64_t);
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, bytes.data() + payload_size,
              sizeof(stored_checksum));
  if (persist::Checksum64(bytes.data(), payload_size) != stored_checksum) {
    return Status::InvalidArgument("shard manifest checksum mismatch: " +
                                   path);
  }

  persist::ByteSource source(bytes.data() + sizeof(kMagic),
                             payload_size - sizeof(kMagic));
  ShardManifest manifest;
  uint32_t manifest_version = 0;
  FUSER_RETURN_IF_ERROR(source.ReadU32(&manifest_version));
  if (manifest_version != kShardManifestVersion) {
    return Status::InvalidArgument(
        "unsupported shard manifest version " +
        std::to_string(manifest_version));
  }
  FUSER_RETURN_IF_ERROR(persist::DecodeFields(&source, &manifest));
  if (manifest.snapshot_format_version != kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        "shard snapshot format version " +
        std::to_string(manifest.snapshot_format_version) +
        " does not match this library's " +
        std::to_string(kSnapshotFormatVersion));
  }
  FUSER_RETURN_IF_ERROR(ValidateShardingOptions(manifest.sharding));
  manifest.local_to_global.resize(manifest.sharding.num_shards);
  uint64_t total = 0;
  for (std::vector<TripleId>& map : manifest.local_to_global) {
    FUSER_RETURN_IF_ERROR(persist::DecodeFields(&source, &map));
    total += map.size();
  }
  if (!source.exhausted()) {
    return Status::InvalidArgument("shard manifest has trailing bytes: " +
                                   path);
  }
  if (total != manifest.num_triples) {
    return Status::InvalidArgument(
        "shard manifest triple counts are inconsistent: " + path);
  }
  return manifest;
}

}  // namespace fuser
