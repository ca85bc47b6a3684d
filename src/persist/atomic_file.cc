#include "persist/atomic_file.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace fuser {
namespace persist {

Status CommitFileAtomic(const std::string& path,
                        const std::function<Status(std::FILE*)>& write) {
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    return Status::IoError("cannot open for writing: " + tmp);
  }
  Status status = write(out);
  if (status.ok() && std::fflush(out) != 0) {
    status = Status::IoError("flush failed: " + tmp);
  }
#if defined(__unix__) || defined(__APPLE__)
  // The rename below may reach the disk before the data does; without
  // this fsync a power loss in the writeback window could replace a good
  // file with a truncated one.
  if (status.ok() && fsync(fileno(out)) != 0) {
    status = Status::IoError("fsync failed: " + tmp);
  }
#endif
  if (std::fclose(out) != 0 && status.ok()) {
    status = Status::IoError("close failed: " + tmp);
  }
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::IoError("cannot rename " + tmp + " to " + path);
  }
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
#if defined(__unix__) || defined(__APPLE__)
  // Sync the directory so the rename itself survives a power loss.
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dir_fd = open(dir.c_str(), O_RDONLY);
  if (dir_fd < 0) {
    return Status::IoError("cannot open directory to sync: " + dir);
  }
  const int synced = fsync(dir_fd);
  close(dir_fd);
  if (synced != 0) {
    return Status::IoError("directory fsync failed: " + dir);
  }
#endif
  return Status::OK();
}

}  // namespace persist
}  // namespace fuser
