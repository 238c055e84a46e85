// Wire serialization for inter-PE messages.
//
// The threaded engine enforces the paper's "local store only, communicating
// via messages" discipline by serializing every cross-PE task to bytes and
// deserializing on the receiving PE — no shared in-memory task objects.
//
// ByteReader is *recoverable*: reading past the end of the buffer (a
// truncated or corrupted message, e.g. from the fault plane's truncate-bytes
// mode) sets a sticky failure flag and yields zeros instead of aborting the
// PE thread. Decoders check ok() and reject the message; the reliable
// channel then recovers it by retransmission (net/reliable_channel.h).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "core/task.h"
#include "util/assert.h"

namespace dgr {

using ByteSpan = std::span<const std::uint8_t>;

class ByteWriter {
 public:
  ByteWriter() = default;
  // Continue appending to `buf` (hand it back with take()): encoders then
  // write straight into a staging buffer instead of a temporary.
  explicit ByteWriter(std::vector<std::uint8_t> buf) : buf_(std::move(buf)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void vid(VertexId v) {
    u32(v.pe);
    u32(v.idx);
  }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(ByteSpan buf) : buf_(buf) {}
  std::uint8_t u8() {
    if (!ok_ || pos_ >= buf_.size()) {
      ok_ = false;
      return 0;
    }
    return buf_[pos_++];
  }
  std::uint32_t u32() {
    std::uint32_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v;
    raw(&v, sizeof v);
    return v;
  }
  VertexId vid() {
    VertexId v;
    v.pe = u32();
    v.idx = u32();
    return v;
  }
  // False once any read ran past the end of the buffer (sticky).
  bool ok() const { return ok_; }
  bool done() const { return ok_ && pos_ == buf_.size(); }
  std::size_t remaining() const { return ok_ ? buf_.size() - pos_ : 0; }

 private:
  void raw(void* p, std::size_t n) {
    if (!ok_ || pos_ + n > buf_.size()) {
      ok_ = false;
      std::memset(p, 0, n);
      return;
    }
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }
  ByteSpan buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Task <-> bytes. Round-trip identity is covered by tests.
std::vector<std::uint8_t> encode_task(const Task& t);
// The same bytes, appended to `out`.
void append_task(std::vector<std::uint8_t>& out, const Task& t);

// Recoverable decode: nullopt on truncated input, trailing bytes, or
// out-of-range enum fields. Never aborts.
std::optional<Task> try_decode_task(ByteSpan bytes);

// Trusting decode for pre-validated buffers; DGR_CHECK-aborts on malformed
// input (the historical behavior — use try_decode_task for network bytes).
Task decode_task(ByteSpan bytes);

}  // namespace dgr
