// The shared protocol envelope (DESIGN.md Section 15): round-trip
// fidelity, the uniform unknown-type rejection rules in open(), and the
// envelope-log audit (the receive-side dedup itself is pinned in
// reliable_channel_test.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "audit/invariants.hpp"
#include "sim/des.hpp"
#include "sim/envelope.hpp"

namespace drep::sim {
namespace {

struct TestPayload {
  int value = 0;
  std::vector<std::uint8_t> bytes;
};

Message wrap(Envelope envelope) {
  Message message;
  message.envelope = std::move(envelope);
  return message;
}

TEST(Envelope, RoundTripPreservesHeaderAndPayload) {
  TestPayload payload{42, {1, 0, 1, 1}};
  const Message message =
      wrap(seal(MessageKind::kGaElites, /*seq=*/7, payload));

  const Envelope& envelope = open(message);
  EXPECT_EQ(envelope.version, kEnvelopeVersion);
  EXPECT_EQ(envelope.kind, MessageKind::kGaElites);
  EXPECT_EQ(envelope.seq, 7u);

  const TestPayload& back = unseal<TestPayload>(envelope);
  EXPECT_EQ(back.value, 42);
  EXPECT_EQ(back.bytes, payload.bytes);
}

TEST(Envelope, UnsupportedVersionRejected) {
  Envelope envelope = seal(MessageKind::kGaElites, 1, TestPayload{});
  envelope.version = kEnvelopeVersion + 1;
  EXPECT_THROW((void)open(wrap(std::move(envelope))), std::logic_error);
}

TEST(Envelope, UnknownKindRejected) {
  Envelope envelope = seal(MessageKind::kGaElites, 1, TestPayload{});
  envelope.kind = static_cast<MessageKind>(7777);
  EXPECT_THROW((void)open(wrap(std::move(envelope))), std::logic_error);
  EXPECT_FALSE(known_kind(7777));
  EXPECT_TRUE(known_kind(static_cast<std::uint16_t>(MessageKind::kGaElites)));
  EXPECT_TRUE(
      known_kind(static_cast<std::uint16_t>(MessageKind::kReplayMigration)));
}

TEST(Envelope, UnsealWrongPayloadTypeThrows) {
  const Envelope envelope = seal(MessageKind::kDriftColumnAck, 1,
                                 TestPayload{});
  EXPECT_THROW((void)unseal<int>(envelope), std::logic_error);
}

TEST(Envelope, KindNamesAreStable) {
  EXPECT_EQ(kind_name(MessageKind::kGaElites), "ga.elites");
  EXPECT_EQ(kind_name(MessageKind::kReplayRead), "replay.read");
  EXPECT_EQ(kind_name(MessageKind::kReplayMigration), "replay.migration");
  EXPECT_EQ(kind_name(static_cast<MessageKind>(7777)), "unknown");
}

// The audit side of the receive filter, over a recorded acceptance log: each
// (sender, kind, seq) is accepted at most once, in any order.
TEST(EnvelopeAudit, MonotonicLogPasses) {
  const std::vector<audit::EnvelopeRecord> log = {
      {0, 64, 1}, {1, 64, 1}, {0, 64, 2}, {0, 65, 1}, {1, 64, 3}};
  EXPECT_TRUE(audit::check_envelope_log(log).empty());
}

// A message overtaken by a later one (seq 2 accepted before seq 1) is a
// first delivery, not a duplicate.
TEST(EnvelopeAudit, OvertakenLogPasses) {
  const std::vector<audit::EnvelopeRecord> log = {
      {0, 64, 2}, {0, 64, 1}, {0, 65, 1}, {1, 64, 3}, {1, 64, 1}};
  EXPECT_TRUE(audit::check_envelope_log(log).empty());
}

TEST(EnvelopeAudit, DuplicateSeqFlagged) {
  const std::vector<audit::EnvelopeRecord> log = {
      {0, 64, 2}, {0, 64, 1}, {0, 64, 2}};
  const auto violations = audit::check_envelope_log(log);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, "envelope.seq_once");
}

TEST(EnvelopeAudit, UnsequencedRecordsExempt) {
  const std::vector<audit::EnvelopeRecord> log = {
      {0, 32, 0}, {0, 32, 0}, {0, 32, 1}};
  EXPECT_TRUE(audit::check_envelope_log(log).empty());
}

}  // namespace
}  // namespace drep::sim
