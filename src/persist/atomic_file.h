// Atomic, durable file replacement: the one commit step every persist
// writer (snapshot files, shard manifests) goes through.
#ifndef FUSER_PERSIST_ATOMIC_FILE_H_
#define FUSER_PERSIST_ATOMIC_FILE_H_

#include <cstdio>
#include <functional>
#include <string>

#include "common/status.h"

namespace fuser {
namespace persist {

/// Replaces the file at `path` with what `write` puts into a stream opened
/// on `path + ".tmp"` (it may seek). The commit flushes the stream, fsyncs
/// the file, renames it onto `path` and fsyncs the directory, so after a
/// crash or power loss `path` holds its old content or the complete new
/// one. A failed `write` returns its Status; a failed file-system step
/// returns IoError. Either way the tmp file is removed.
Status CommitFileAtomic(const std::string& path,
                        const std::function<Status(std::FILE*)>& write);

}  // namespace persist
}  // namespace fuser

#endif  // FUSER_PERSIST_ATOMIC_FILE_H_
