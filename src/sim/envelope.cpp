#include "sim/envelope.hpp"

#include <string>

#include "sim/des.hpp"

namespace drep::sim {

std::string_view kind_name(MessageKind kind) noexcept {
  switch (kind) {
    case MessageKind::kSraTokenGrant: return "sra.token_grant";
    case MessageKind::kSraTokenReturn: return "sra.token_return";
    case MessageKind::kSraReplicaAnnounce: return "sra.replica_announce";
    case MessageKind::kSraAnnounceAck: return "sra.announce_ack";
    case MessageKind::kSraRejoin: return "sra.rejoin";
    case MessageKind::kSraRejoinAck: return "sra.rejoin_ack";
    case MessageKind::kRetuneStatsReport: return "retune.stats_report";
    case MessageKind::kRetuneStatsAck: return "retune.stats_ack";
    case MessageKind::kRetuneAddReplica: return "retune.add_replica";
    case MessageKind::kRetuneDropReplica: return "retune.drop_replica";
    case MessageKind::kRetuneAck: return "retune.ack";
    case MessageKind::kGaElites: return "ga.elites";
    case MessageKind::kGaElitesAck: return "ga.elites_ack";
    case MessageKind::kDriftColumnUpdate: return "drift.column_update";
    case MessageKind::kDriftColumnAck: return "drift.column_ack";
    case MessageKind::kFetchRequest: return "fetch.request";
    case MessageKind::kFetchResponse: return "fetch.response";
    case MessageKind::kReplayRead: return "replay.read";
    case MessageKind::kReplayReadResponse: return "replay.read_response";
    case MessageKind::kReplayWriteShip: return "replay.write_ship";
    case MessageKind::kReplayWriteAck: return "replay.write_ack";
    case MessageKind::kReplayUpdate: return "replay.update";
    case MessageKind::kReplayUpdateAck: return "replay.update_ack";
    case MessageKind::kReplayMigration: return "replay.migration";
  }
  return "unknown";
}

const Envelope& open(const Message& message) {
  const Envelope& envelope = message.envelope;
  if (envelope.version != kEnvelopeVersion) {
    throw std::logic_error("Envelope: unsupported version " +
                           std::to_string(envelope.version));
  }
  if (!known_kind(static_cast<std::uint16_t>(envelope.kind))) {
    throw std::logic_error(
        "Envelope: unknown message kind " +
        std::to_string(static_cast<std::uint16_t>(envelope.kind)));
  }
  return envelope;
}

}  // namespace drep::sim
