#include "sim/fetch_leg.hpp"

namespace drep::sim {

FetchLeg::FetchLeg(DesNetwork& network, SiteId self,
                   const core::Problem& problem, const RetryPolicy& policy,
                   RetryStats& stats, FetchClient& client)
    : network_(&network),
      self_(self),
      problem_(&problem),
      holder_attempts_(policy.max_retries / 2),
      client_(&client),
      channel_(network, self, policy, stats, *this) {}

void FetchLeg::fetch(core::ObjectId object, SiteId holder, std::uint64_t tag) {
  (void)channel_.open({object, holder, tag});
}

bool FetchLeg::handle(const Message& message) {
  const Envelope& envelope = message.envelope;
  switch (envelope.kind) {
    case MessageKind::kFetchRequest: {
      // Served every time (retransmissions included): the requester dedups.
      const auto object = unseal<core::ObjectId>(envelope);
      network_->send(self_, message.from, problem_->object_size(object),
                     seal(MessageKind::kFetchResponse, envelope.seq, object));
      return true;
    }
    case MessageKind::kFetchResponse: {
      const Fetch* pending = channel_.find(envelope.seq);
      const std::uint64_t tag = pending != nullptr ? pending->tag : 0;
      if (channel_.settle(envelope.seq)) client_->fetched(tag, true);
      return true;
    }
    default:
      return false;
  }
}

void FetchLeg::on_crash() {
  channel_.close_if([](const Fetch&) { return true; });
}

std::size_t FetchLeg::transmit(ExchangeKey key, std::size_t attempt) {
  const Fetch& fetch = channel_[key];
  const SiteId target = attempt <= holder_attempts_
                            ? fetch.holder
                            : problem_->primary(fetch.object);
  network_->send(self_, target, 0.0,
                 seal(MessageKind::kFetchRequest, key, fetch.object));
  return 1;
}

void FetchLeg::give_up(ExchangeKey key) {
  const std::uint64_t tag = channel_[key].tag;
  channel_.close(key);
  client_->fetched(tag, false);
}

}  // namespace drep::sim
