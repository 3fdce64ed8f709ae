#pragma once
// The versioned protocol message envelope: the one message format on the
// DES (DESIGN.md Section 15). Every sim::Message carries one by value.
//
// The trace replay (access_replay.*), distributed_sra.*, monitor_protocol.*,
// fetch_leg.* and the decentralized GA/adapt protocols in src/dist/ all
// speak it:
//
//   version   wire-format version; receivers reject anything unknown
//   kind      global message-type tag (one enum across all protocols)
//   seq       per-sender sequence id for dedup/idempotence (0 = unsequenced);
//             receivers dedup through ReliableChannel::accept
//   payload   the protocol-specific value, a std::any; empty when the
//             message carries nothing but its header
//
// Ids travel once: a message's id is its seq and its origin Message::from
// (the envelope stores no sender), so no payload repeats either, and an
// ack, grant or rejoin that carries only an id seals no payload at all.
// Every fixed-size payload is 8 bytes or smaller, which std::any keeps
// inline, so such a message allocates nothing.
//
// open() is the single entry point on the receive side: it validates the
// version and the kind, so the DES fault machinery (drops, duplicates from
// retransmission, crash-delayed deliveries) meets the same rejection rules
// in all protocols. A node that receives a *known* kind it does not speak
// still throws — that is a wiring bug, not a network condition.

#include <any>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace drep::sim {

struct Message;

inline constexpr std::uint16_t kEnvelopeVersion = 1;

/// Global message-type tags. Values are part of the (simulated) wire format:
/// append, never renumber. Ranges are blocked per protocol so a dispatch
/// table stays readable. Retired, never reused: 3, 4, 36, 37, 98, 99 (the
/// per-protocol fetch pairs).
enum class MessageKind : std::uint16_t {
  // Distributed SRA (sim/distributed_sra.cpp).
  kSraTokenGrant = 1,
  kSraTokenReturn = 2,
  kSraReplicaAnnounce = 5,
  kSraAnnounceAck = 6,
  kSraRejoin = 7,
  kSraRejoinAck = 8,
  // Monitor retune round (sim/monitor_protocol.cpp).
  kRetuneStatsReport = 32,
  kRetuneStatsAck = 33,
  kRetuneAddReplica = 34,
  kRetuneDropReplica = 35,
  kRetuneAck = 38,
  // Decentralized island GA (dist/dgra.cpp).
  kGaElites = 64,
  kGaElitesAck = 65,
  // Decentralized adaptive retune (dist/dagra.cpp).
  kDriftColumnUpdate = 96,
  kDriftColumnAck = 97,
  // Object migration (sim/fetch_leg.cpp), shared by every protocol above
  // that moves replicas.
  kFetchRequest = 128,
  kFetchResponse = 129,
  // Trace replay of the access policy (sim/access_replay.cpp).
  kReplayRead = 160,
  kReplayReadResponse = 161,
  kReplayWriteShip = 162,
  kReplayWriteAck = 163,
  kReplayUpdate = 164,
  kReplayUpdateAck = 165,
  kReplayMigration = 166,
};

/// Stable lowercase name for diagnostics ("sra.token_grant", …);
/// "unknown" for unlisted tags.
[[nodiscard]] std::string_view kind_name(MessageKind kind) noexcept;

/// True for every tag listed above: the ones kind_name() knows.
[[nodiscard]] inline bool known_kind(std::uint16_t kind) noexcept {
  return kind_name(static_cast<MessageKind>(kind)) != "unknown";
}

struct Envelope {
  std::uint16_t version = kEnvelopeVersion;
  MessageKind kind{};
  /// Per-sender sequence id; retransmissions re-send the same value so
  /// receivers can dedup. 0 = unsequenced (fire-and-forget control).
  std::uint64_t seq = 0;
  std::any payload;
};

/// Wraps a payload for DesNetwork::send().
template <typename Payload>
[[nodiscard]] Envelope seal(MessageKind kind, std::uint64_t seq,
                            Payload payload) {
  return Envelope{kEnvelopeVersion, kind, seq, std::move(payload)};
}

/// Wraps a message that carries nothing but its header (an id-only ack,
/// grant or rejoin); unseal() of it always throws.
[[nodiscard]] inline Envelope seal(MessageKind kind, std::uint64_t seq) {
  return Envelope{kEnvelopeVersion, kind, seq, {}};
}

/// The uniform receive-side gate: validates the message's envelope and
/// returns it. Throws std::logic_error when the version is unsupported or
/// the kind is not a registered tag — the shared unknown-type rejection
/// rule.
[[nodiscard]] const Envelope& open(const Message& message);

/// Typed payload access after the kind switch; throws std::logic_error when
/// the payload does not hold a Payload (a kind/payload wiring bug).
template <typename Payload>
[[nodiscard]] const Payload& unseal(const Envelope& envelope) {
  const Payload* payload = std::any_cast<Payload>(&envelope.payload);
  if (payload == nullptr) {
    throw std::logic_error(
        "Envelope: payload type does not match kind " +
        std::string(kind_name(envelope.kind)));
  }
  return *payload;
}

}  // namespace drep::sim
