// Copyright 2026 The QPSeeker Authors
//
// Durable file I/O for checkpoints. AtomicWriteFile implements the classic
// crash-safe replacement protocol — write a temp file in the target
// directory, fsync it, rename() over the destination, fsync the directory —
// so a reader never observes a half-written file: it sees either the old
// complete contents or the new complete contents, even across a crash at
// any point in the sequence.
//
// Fault points (util/fault): "io.write", "io.fsync", "io.rename". Arming
// one simulates a crash at that stage (the destination is left untouched),
// which is how the torn-write recovery tests prove the protocol.

#ifndef QPS_UTIL_IO_H_
#define QPS_UTIL_IO_H_

#include <string>

#include "util/status.h"

namespace qps {
namespace io {

/// Atomically replaces `path` with `contents` (temp + fsync + rename).
/// On any error the destination keeps its previous contents; the temp file
/// is cleaned up on the error paths this process survives.
Status AtomicWriteFile(const std::string& path, const std::string& contents);

/// Reads an entire file into memory. kIOError when the file cannot be
/// opened or read; never returns partial contents.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace io
}  // namespace qps

#endif  // QPS_UTIL_IO_H_
