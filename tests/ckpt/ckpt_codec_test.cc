// Round trip of every registered checkpoint payload codec: each payload is
// built with every field away from its default, encoded, decoded and
// encoded again.  The two encodings must be the same bytes, and the decoded
// payload must carry the original field values, so a codec that drops,
// reorders or mistypes a field fails here even when no resume run happens
// to hold that payload at its save point.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ckpt/format.h"
#include "ckpt/payload_codec.h"
#include "pastry/pastry_internal.h"
#include "scribe/scribe_msgs.h"
#include "vbundle/shuffler.h"

namespace vb {
namespace {

using pastry::MsgCategory;
using pastry::NodeHandle;
using pastry::PayloadPtr;

const NodeHandle kA{U128{0x1111222233334444ull, 0x5555666677778888ull}, 7};
const NodeHandle kB{U128{0x9999aaaabbbbccccull, 0xddddeeeeffff0001ull}, 12};
const NodeHandle kC{U128{0x0123456789abcdefull, 0xfedcba9876543210ull}, 3};
const U128 kGroup{0xabcdef0123456789ull, 0x13579bdf2468ace0ull};

void register_all() {
  pastry::register_ckpt_payload_codecs();
  scribe::register_ckpt_payload_codecs();
  core::register_ckpt_payload_codecs();
}

std::vector<std::uint8_t> encode(const pastry::Payload& p) {
  ckpt::Writer w;
  ckpt::PayloadCodec::encode(w, p);
  return w.finish();
}

/// Encodes `p`, decodes the image, re-encodes the result and checks both
/// images are equal and fully consumed; returns the decoded payload cast to
/// T so the caller can compare fields.
template <class T>
std::shared_ptr<const T> round_trip(const T& p) {
  register_all();
  std::vector<std::uint8_t> image = encode(p);
  ckpt::Reader r(image);
  PayloadPtr back = ckpt::PayloadCodec::decode(r);
  EXPECT_TRUE(r.at_end()) << p.name();
  auto typed = std::dynamic_pointer_cast<const T>(back);
  EXPECT_NE(typed, nullptr) << p.name();
  if (typed == nullptr) return nullptr;
  EXPECT_EQ(back->name(), p.name());
  EXPECT_EQ(encode(*back), image) << p.name();
  return typed;
}

void expect_handle(const NodeHandle& got, const NodeHandle& want) {
  EXPECT_TRUE(got.id == want.id);
  EXPECT_EQ(got.host, want.host);
}

std::shared_ptr<core::LoadBalanceQueryMsg> make_query() {
  auto q = std::make_shared<core::LoadBalanceQueryMsg>();
  q->vm = 4242;
  q->spec = host::VmSpec{110.5, 220.25, 256.0, 1.5, 3.75};
  q->demand_mbps = 87.125;
  q->cpu_demand = 2.0625;
  q->shedder = kB;
  q->query_seq = 99;
  q->trace = 0x5eed;
  return q;
}

void expect_query(const pastry::PayloadPtr& p) {
  auto q = std::dynamic_pointer_cast<const core::LoadBalanceQueryMsg>(p);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->vm, 4242);
  EXPECT_EQ(q->spec.reservation_mbps, 110.5);
  EXPECT_EQ(q->spec.limit_mbps, 220.25);
  EXPECT_EQ(q->spec.ram_mb, 256.0);
  EXPECT_EQ(q->spec.cpu_reservation, 1.5);
  EXPECT_EQ(q->spec.cpu_limit, 3.75);
  EXPECT_EQ(q->demand_mbps, 87.125);
  EXPECT_EQ(q->cpu_demand, 2.0625);
  expect_handle(q->shedder, kB);
  EXPECT_EQ(q->query_seq, 99u);
  EXPECT_EQ(q->trace, 0x5eedu);
}

TEST(CkptCodecs, PastryScan) {
  pastry::internal::RingScan m;
  m.origin = kA;
  auto back = round_trip(m);
  ASSERT_NE(back, nullptr);
  expect_handle(back->origin, kA);
}

TEST(CkptCodecs, PastryScanReply) {
  pastry::internal::RingScanReply m;
  m.nodes = {kA, kB, kC};
  auto back = round_trip(m);
  ASSERT_NE(back, nullptr);
  ASSERT_EQ(back->nodes.size(), 3u);
  expect_handle(back->nodes[0], kA);
  expect_handle(back->nodes[1], kB);
  expect_handle(back->nodes[2], kC);
}

TEST(CkptCodecs, PastryReliableEnvelope) {
  pastry::internal::ReliableEnvelope m;
  m.inner = make_query();
  m.inner_category = MsgCategory::kVBundle;
  m.seq = 17;
  m.floor = 11;
  m.sender = kC;
  m.trace = 0xfeed;
  auto back = round_trip(m);
  ASSERT_NE(back, nullptr);
  expect_query(back->inner);
  EXPECT_EQ(back->inner_category, MsgCategory::kVBundle);
  EXPECT_EQ(back->seq, 17u);
  EXPECT_EQ(back->floor, 11u);
  expect_handle(back->sender, kC);
  EXPECT_EQ(back->trace, 0xfeedu);
}

TEST(CkptCodecs, ScribeHeartbeat) {
  scribe::HeartbeatMsg m;
  m.group = kGroup;
  m.child = kA;
  auto back = round_trip(m);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->group == kGroup);
  expect_handle(back->child, kA);
}

TEST(CkptCodecs, ScribeHeartbeatNack) {
  scribe::HeartbeatNackMsg m;
  m.group = kGroup;
  auto back = round_trip(m);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->group == kGroup);
}

TEST(CkptCodecs, ScribeParentReset) {
  scribe::ParentResetMsg m;
  m.group = kGroup;
  auto back = round_trip(m);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->group == kGroup);
}

TEST(CkptCodecs, ScribeLeave) {
  scribe::LeaveMsg m;
  m.group = kGroup;
  m.child = kB;
  auto back = round_trip(m);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->group == kGroup);
  expect_handle(back->child, kB);
}

TEST(CkptCodecs, ScribeWalk) {
  scribe::WalkMsg m;
  m.group = kGroup;
  m.inner = make_query();
  m.origin = kA;
  m.inner_category = MsgCategory::kVBundle;
  m.stack = {kB, kC};
  m.visited = {kA.id, kC.id, kGroup};
  m.nodes_visited = 5;
  m.trace = 0xabc;
  auto back = round_trip(m);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->group == kGroup);
  expect_query(back->inner);
  expect_handle(back->origin, kA);
  EXPECT_EQ(back->inner_category, MsgCategory::kVBundle);
  ASSERT_EQ(back->stack.size(), 2u);
  expect_handle(back->stack[0], kB);
  expect_handle(back->stack[1], kC);
  ASSERT_EQ(back->visited.size(), 3u);
  EXPECT_TRUE(back->visited[0] == kA.id);
  EXPECT_TRUE(back->visited[1] == kC.id);
  EXPECT_TRUE(back->visited[2] == kGroup);
  EXPECT_EQ(back->nodes_visited, 5);
  EXPECT_EQ(back->trace, 0xabcu);
}

TEST(CkptCodecs, ScribeAnycastAccepted) {
  scribe::AnycastAcceptedMsg m;
  m.group = kGroup;
  m.inner = make_query();
  m.acceptor = kC;
  m.nodes_visited = 9;
  m.trace = 0x77;
  auto back = round_trip(m);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->group == kGroup);
  expect_query(back->inner);
  expect_handle(back->acceptor, kC);
  EXPECT_EQ(back->nodes_visited, 9);
  EXPECT_EQ(back->trace, 0x77u);
}

TEST(CkptCodecs, ScribeAnycastFailed) {
  scribe::AnycastFailedMsg m;
  m.group = kGroup;
  m.inner = make_query();
  m.nodes_visited = 13;
  m.trace = 0x99;
  auto back = round_trip(m);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->group == kGroup);
  expect_query(back->inner);
  EXPECT_EQ(back->nodes_visited, 13);
  EXPECT_EQ(back->trace, 0x99u);
}

TEST(CkptCodecs, VBundleLoadBalanceQuery) {
  auto q = make_query();
  auto back = round_trip(*q);
  ASSERT_NE(back, nullptr);
  expect_query(back);
}

TEST(CkptCodecs, AbsentInnerPayloadStaysAbsent) {
  scribe::AnycastFailedMsg m;
  m.group = kGroup;
  m.nodes_visited = 1;
  auto back = round_trip(m);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->inner, nullptr);
}

}  // namespace
}  // namespace vb
