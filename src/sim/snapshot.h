// Versioned, CRC-guarded binary snapshot format (ROADMAP "checkpointing").
//
// A snapshot file is a 24-byte header followed by an opaque payload:
//
//   offset  size  field
//        0     4  magic            'TSNP' (0x504E5354)
//        4     4  format version   kSnapshotVersion
//        8     4  kind             caller-chosen payload discriminator
//       12     4  payload CRC-32   ISO-HDLC polynomial, over the payload
//       16     8  payload size     bytes following the header
//
// The payload is produced by a SnapshotWriter and consumed by a
// SnapshotReader: little-endian-on-x86 native integers plus length-prefixed
// strings/vectors, with section tags interleaved so a reader that drifts
// out of sync fails on the next tag instead of silently misparsing. Every
// decode error - truncation, a bad tag, a length that overruns the buffer,
// a failed CRC - is reported as SnapshotError carrying the file and byte
// offset, never UB or a silent wrong restore.
//
// Write discipline is atomic: the payload goes to `<path>.tmp`, is fsynced,
// and then renamed over `<path>`. A crash (or SIGKILL) mid-write leaves
// either the complete previous snapshot or a stale .tmp that no reader
// looks at - a visible `<path>` is always a complete, CRC-consistent file.
//
// The stateful layers each expose save_state(SnapshotWriter&) /
// restore_state(SnapshotReader&) built on this format: tera::ClusterMemory
// (L1 words only), ran::SlotScheduler (per cluster: program residency and
// L1), mac::HarqEntity, mac::Cell, and the farm's per-cell snapshot files
// (mac/farm.h). The ISS machine has no entry point of its own: at a slot
// boundary its harts hold nothing a later run reads, so the scheduler
// rebuilds the machine instead. The repo-wide contract those entry points
// implement: capture at a TTI boundary, restore into a freshly constructed
// object of the same configuration in a fresh process, and the
// continuation is bit-identical to an uninterrupted run.
#pragma once

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace tsim::sim {

inline constexpr u32 kSnapshotMagic = 0x504E5354;  // "TSNP"
inline constexpr u32 kSnapshotVersion = 2;

/// A snapshot that cannot be decoded: truncated, corrupted (CRC/tag/length
/// mismatch), the wrong kind, or taken under an incompatible configuration.
/// Carries the file ("<memory>" for in-memory payloads) and the byte offset
/// at which decoding failed.
class SnapshotError : public SimError {
 public:
  SnapshotError(std::string file, u64 offset, const std::string& what)
      : SimError(file + " @" + std::to_string(offset) + ": " + what),
        file_(std::move(file)),
        offset_(offset) {}

  const std::string& file() const { return file_; }
  u64 offset() const { return offset_; }

 private:
  std::string file_;
  u64 offset_;
};

/// CRC-32 (ISO-HDLC / zlib polynomial, reflected, init/xorout 0xFFFFFFFF),
/// table-driven. `seed` chains partial buffers: crc32(b, n, crc32(a, m)).
u32 crc32(const void* data, size_t len, u32 seed = 0);

/// Serializes primitives into a growing byte buffer (the snapshot payload).
class SnapshotWriter {
 public:
  void write_u8(u8 v) { append(&v, 1); }
  void write_bool(bool v) { write_u8(v ? 1 : 0); }
  void write_u32(u32 v) { append(&v, sizeof v); }
  void write_u64(u64 v) { append(&v, sizeof v); }
  void write_i64(i64 v) { append(&v, sizeof v); }
  void write_bytes(const void* data, size_t len) { append(data, len); }

  void write_string(std::string_view s) {
    write_u64(s.size());
    append(s.data(), s.size());
  }
  void write_vec_u8(const std::vector<u8>& v) {
    write_u64(v.size());
    append(v.data(), v.size());
  }
  void write_vec_u32(const std::vector<u32>& v) {
    write_u64(v.size());
    append(v.data(), v.size() * sizeof(u32));
  }
  void write_vec_u64(const std::vector<u64>& v) {
    write_u64(v.size());
    append(v.data(), v.size() * sizeof(u64));
  }

  /// Section marker; SnapshotReader::expect_tag checks it on decode.
  void tag(u32 t) { write_u32(t); }

  const std::string& payload() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  void append(const void* data, size_t len) {
    if (len != 0) buf_.append(static_cast<const char*>(data), len);
  }
  std::string buf_;
};

/// Bounds-checked decoder over a snapshot payload. Every overrun or
/// mismatch throws SnapshotError with the source file and byte offset.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string payload, std::string file = "<memory>")
      : buf_(std::move(payload)), file_(std::move(file)) {}

  u8 read_u8() { return take<u8>(); }
  bool read_bool() { return read_u8() != 0; }
  u32 read_u32() { return take<u32>(); }
  u64 read_u64() { return take<u64>(); }
  i64 read_i64() { return take<i64>(); }
  void read_bytes(void* out, size_t len) {
    need(len, "byte run");
    std::memcpy(out, buf_.data() + pos_, len);
    pos_ += len;
  }

  std::string read_string() {
    const u64 n = read_length(1, "string");
    std::string s(buf_.data() + pos_, n);
    pos_ += n;
    return s;
  }
  std::vector<u8> read_vec_u8() { return read_vec<u8>("vec<u8>"); }
  std::vector<u32> read_vec_u32() { return read_vec<u32>("vec<u32>"); }
  std::vector<u64> read_vec_u64() { return read_vec<u64>("vec<u64>"); }

  /// Checks the next u32 equals `t`; `what` names the section in the error.
  void expect_tag(u32 t, const char* what) {
    const u64 at = pos_;
    const u32 got = read_u32();
    if (got != t)
      throw SnapshotError(file_, at,
                          std::string("bad section tag for ") + what);
  }

  /// Fails decoding at the current offset with a semantic error (value out
  /// of range, configuration mismatch, ...).
  [[noreturn]] void fail(const std::string& what) const {
    throw SnapshotError(file_, pos_, what);
  }

  u64 offset() const { return pos_; }
  size_t remaining() const { return buf_.size() - pos_; }
  /// Declares decoding complete; trailing bytes are corruption.
  void expect_end() const {
    if (pos_ != buf_.size())
      throw SnapshotError(file_, pos_, "trailing bytes after payload");
  }
  const std::string& file() const { return file_; }

 private:
  void need(size_t len, const char* what) const {
    if (len > buf_.size() - pos_)
      throw SnapshotError(file_, pos_,
                          std::string("truncated payload reading ") + what);
  }
  template <typename T>
  T take() {
    need(sizeof(T), "integer");
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  /// Length prefix of `elem_size`-byte elements, validated against the
  /// remaining payload so a corrupt length cannot drive a huge allocation.
  u64 read_length(size_t elem_size, const char* what) {
    const u64 at = pos_;
    const u64 n = read_u64();
    if (n > (buf_.size() - pos_) / elem_size)
      throw SnapshotError(file_, at,
                          std::string("length overruns payload in ") + what);
    return n;
  }
  template <typename T>
  std::vector<T> read_vec(const char* what) {
    const u64 n = read_length(sizeof(T), what);
    std::vector<T> v(n);
    if (n != 0) {
      std::memcpy(v.data(), buf_.data() + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    }
    return v;
  }

  std::string buf_;
  size_t pos_ = 0;
  std::string file_;
};

/// Atomically writes `payload` as a snapshot of `kind` to `path`:
/// `<path>.tmp` + fsync + rename, so a visible file is always complete.
/// Throws SimError on any filesystem failure.
void write_snapshot_file(const std::string& path, u32 kind,
                         const std::string& payload);

/// Reads and verifies a snapshot file (magic, version, kind, size, CRC) and
/// returns its payload. Throws SnapshotError on any mismatch, truncation or
/// corruption; SimError if the file cannot be opened.
std::string read_snapshot_file(const std::string& path, u32 kind);

}  // namespace tsim::sim
