// Copyright 2026 The QPSeeker Authors

#include "util/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/fault.h"
#include "util/logging.h"

namespace qps {
namespace io {

namespace {

std::string Errno(const std::string& op, const std::string& path) {
  return op + " failed for " + path + ": " + std::strerror(errno);
}

/// Directory part of `path` ("." when there is none).
std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Best-effort fsync of the directory containing `path`, so the rename
/// itself is durable. Some filesystems reject directory fsync; that is not
/// a correctness problem for atomicity, so failures only log.
void SyncDir(const std::string& path) {
  const int dir_fd = ::open(DirName(path).c_str(), O_RDONLY);
  if (dir_fd < 0) return;
  if (::fsync(dir_fd) != 0) {
    QPS_VLOG(1) << "io: directory fsync failed for " << DirName(path) << ": "
                << std::strerror(errno);
  }
  ::close(dir_fd);
}

}  // namespace

Status AtomicWriteFile(const std::string& path, const std::string& contents) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError(Errno("open", tmp));

  auto fail = [&](Status st) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  };

  if (Status st = fault::Check("io.write"); !st.ok()) return fail(st);
  size_t written = 0;
  while (written < contents.size()) {
    const ssize_t n =
        ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail(Status::IOError(Errno("write", tmp)));
    }
    written += static_cast<size_t>(n);
  }

  if (Status st = fault::Check("io.fsync"); !st.ok()) return fail(st);
  if (::fsync(fd) != 0) return fail(Status::IOError(Errno("fsync", tmp)));
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError(Errno("close", tmp));
  }

  if (Status st = fault::Check("io.rename"); !st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError(Errno("rename", tmp + " -> " + path));
  }
  SyncDir(path);
  return Status::OK();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IOError("read failed: " + path);
  return std::move(buf).str();
}

}  // namespace io
}  // namespace qps
