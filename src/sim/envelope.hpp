#pragma once
// The versioned protocol message envelope shared by every DES protocol
// (DESIGN.md Section 15).
//
// distributed_sra.*, monitor_protocol.*, fetch_leg.* and the decentralized
// GA/adapt protocols in src/dist/ send every message inside one Envelope:
//
//   version   wire-format version; receivers reject anything unknown
//   kind      global message-type tag (one enum across all protocols)
//   seq       per-sender sequence id for dedup/idempotence (0 = unsequenced);
//             receivers dedup through ReliableChannel::accept
//   sender    originating site
//   payload   the protocol-specific struct, a std::any; empty when the
//             message carries nothing but its header
//
// Ids travel once: a message's id is its seq and its origin is its sender,
// so no payload repeats either, and an ack, grant or rejoin that carries
// only an id seals no payload at all.
//
// open() is the single entry point on the receive side: it validates the
// version and the kind, so the DES fault machinery (drops, duplicates from
// retransmission, crash-delayed deliveries) meets the same rejection rules
// in all protocols. A node that receives a *known* kind it does not speak
// still throws — that is a wiring bug, not a network condition.

#include <any>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "sim/des.hpp"

namespace drep::sim {

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
};

/// True for every tag listed above.
[[nodiscard]] bool known_kind(std::uint16_t kind) noexcept;

/// Stable lowercase name for diagnostics ("sra.token_grant", …);
/// "unknown" for unlisted tags.
[[nodiscard]] std::string_view kind_name(MessageKind kind) noexcept;

struct Envelope {
  std::uint16_t version = kEnvelopeVersion;
  MessageKind kind{};
  /// Per-sender sequence id; retransmissions re-send the same value so
  /// receivers can dedup. 0 = unsequenced (fire-and-forget control).
  std::uint64_t seq = 0;
  SiteId sender = 0;
  std::any payload;
};

/// Wraps a payload for send(): DesNetwork carries the Envelope as the
/// message's std::any payload.
template <typename Payload>
[[nodiscard]] Envelope seal(MessageKind kind, SiteId sender, std::uint64_t seq,
                            Payload payload) {
  return Envelope{kEnvelopeVersion, kind, seq, sender, std::move(payload)};
}

/// Wraps a message that carries nothing but its header (an id-only ack,
/// grant or rejoin); unseal() of it always throws.
[[nodiscard]] inline Envelope seal(MessageKind kind, SiteId sender,
                                   std::uint64_t seq) {
  return Envelope{kEnvelopeVersion, kind, seq, sender, {}};
}

/// The uniform receive-side gate: any_casts the message payload to an
/// Envelope and validates it. Throws std::logic_error when the payload is
/// not an Envelope ("unknown payload"), the version is unsupported, or the
/// kind is not a registered tag — the shared unknown-type rejection rule.
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
