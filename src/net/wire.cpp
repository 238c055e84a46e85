#include "net/wire.h"

namespace dgr {

std::vector<std::uint8_t> encode_task(const Task& t) {
  std::vector<std::uint8_t> out;
  append_task(out, t);
  return out;
}

void append_task(std::vector<std::uint8_t>& out, const Task& t) {
  ByteWriter w(std::move(out));
  w.u8(static_cast<std::uint8_t>(t.kind));
  w.u8(static_cast<std::uint8_t>(t.plane));
  w.u8(t.prior);
  w.u8(static_cast<std::uint8_t>(t.demand));
  w.u8(t.pool_prior);
  w.vid(t.d);
  w.vid(t.s);
  w.u8(static_cast<std::uint8_t>(t.value.kind));
  w.i64(t.value.i);
  w.vid(t.value.node);
  out = w.take();
}

std::optional<Task> try_decode_task(ByteSpan bytes) {
  ByteReader r(bytes);
  Task t;
  const std::uint8_t kind = r.u8();
  const std::uint8_t plane = r.u8();
  t.prior = r.u8();
  const std::uint8_t demand = r.u8();
  t.pool_prior = r.u8();
  t.d = r.vid();
  t.s = r.vid();
  const std::uint8_t vkind = r.u8();
  t.value.i = r.i64();
  t.value.node = r.vid();
  if (!r.done()) return std::nullopt;  // short read or trailing bytes
  // Range-check every enum field before the cast: a flipped byte must yield
  // a decode error, not an out-of-range enum loose in the marker.
  if (kind > static_cast<std::uint8_t>(TaskKind::kPeAck)) return std::nullopt;
  if (plane > static_cast<std::uint8_t>(Plane::kT)) return std::nullopt;
  if (demand > static_cast<std::uint8_t>(ReqKind::kVital)) return std::nullopt;
  if (vkind > static_cast<std::uint8_t>(ValueKind::kNil)) return std::nullopt;
  t.kind = static_cast<TaskKind>(kind);
  t.plane = static_cast<Plane>(plane);
  t.demand = static_cast<ReqKind>(demand);
  t.value.kind = static_cast<ValueKind>(vkind);
  return t;
}

Task decode_task(ByteSpan bytes) {
  std::optional<Task> t = try_decode_task(bytes);
  DGR_CHECK_MSG(t.has_value(), "malformed task message");
  return *t;
}

}  // namespace dgr
