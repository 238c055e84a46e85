// Wire-layer hardening tests: round-trip identity for every message kind,
// and — the property the fault plane leans on — that malformed bytes
// (truncation at any length, corrupted enum fields, trailing garbage) fail
// *recoverably* through try_decode_task instead of aborting the process.
#include <gtest/gtest.h>

#include <vector>

#include "net/wire.h"

namespace dgr {
namespace {

std::vector<Task> one_of_every_kind() {
  std::vector<Task> ts;
  ts.push_back(Task::request(VertexId{1, 2}, VertexId{3, 4}, ReqKind::kEager));
  ts.push_back(Task::return_val(VertexId{0, 7}, VertexId{2, 1},
                                Value::of_int(-123456789), 2));
  ts.push_back(Task::eval(VertexId{1, 9}, 1));
  ts.push_back(Task::mark(Plane::kT, VertexId{3, 77}, VertexId{1, 2}, 2));
  ts.push_back(Task::mark_return(Plane::kR, VertexId{2, 5}));
  Task compact;
  compact.kind = TaskKind::kCompactMark;
  compact.plane = Plane::kR;
  compact.d = VertexId{0, 42};
  compact.s = VertexId{3, 0};  // s.pe = sending PE
  compact.prior = 3;
  ts.push_back(compact);
  Task ack;
  ack.kind = TaskKind::kPeAck;
  ack.d = VertexId{1, 0};  // d.pe = receiving PE
  ts.push_back(ack);
  return ts;
}

TEST(Wire, RoundTripEveryKind) {
  for (const Task& t : one_of_every_kind()) {
    const std::vector<std::uint8_t> bytes = encode_task(t);
    const std::optional<Task> u = try_decode_task(bytes);
    ASSERT_TRUE(u.has_value());
    EXPECT_EQ(u->kind, t.kind);
    EXPECT_EQ(u->plane, t.plane);
    EXPECT_EQ(u->d, t.d);
    EXPECT_EQ(u->s, t.s);
    EXPECT_EQ(u->prior, t.prior);
    EXPECT_EQ(u->demand, t.demand);
    EXPECT_EQ(u->pool_prior, t.pool_prior);
    EXPECT_EQ(u->value.kind, t.value.kind);
    EXPECT_EQ(u->value.i, t.value.i);
    EXPECT_EQ(u->value.node, t.value.node);
  }
}

TEST(Wire, TruncationAtEveryLengthIsRecoverable) {
  // Exactly what the fault plane's truncate mode produces: a prefix of the
  // encoding. Every possible cut must yield nullopt — never an abort, and
  // never a "successfully" decoded short message.
  const std::vector<std::uint8_t> full =
      encode_task(Task::mark(Plane::kT, VertexId{3, 77}, VertexId{1, 2}, 2));
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(full.begin(), full.begin() + cut);
    EXPECT_FALSE(try_decode_task(prefix).has_value()) << "cut=" << cut;
  }
  EXPECT_TRUE(try_decode_task(full).has_value());
}

TEST(Wire, TrailingBytesRejected) {
  std::vector<std::uint8_t> bytes =
      encode_task(Task::mark_return(Plane::kR, VertexId{0, 3}));
  bytes.push_back(0xEE);
  EXPECT_FALSE(try_decode_task(bytes).has_value());
}

TEST(Wire, OutOfRangeEnumsRejected) {
  const std::vector<std::uint8_t> good =
      encode_task(Task::request(VertexId{1, 2}, VertexId{3, 4}, ReqKind::kVital));
  // Layout: kind, plane, prior, demand, pool_prior, ... (see wire.cpp).
  for (const std::size_t field : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}}) {
    std::vector<std::uint8_t> bad = good;
    bad[field] = 0xFF;
    EXPECT_FALSE(try_decode_task(bad).has_value()) << "field=" << field;
  }
  // The value-kind byte sits right after the two VertexIds.
  std::vector<std::uint8_t> bad = good;
  bad[5 + 8 + 8] = 0xFF;
  EXPECT_FALSE(try_decode_task(bad).has_value());
}

TEST(Wire, ByteReaderStickyFailure) {
  const std::vector<std::uint8_t> three = {1, 2, 3};
  ByteReader r(three);
  EXPECT_EQ(r.u8(), 1u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // only 2 bytes left: fails, yields zero
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // stays failed even though bytes remain
  EXPECT_FALSE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, EmptyBufferRejected) {
  EXPECT_FALSE(try_decode_task({}).has_value());
}

}  // namespace
}  // namespace dgr
