#pragma once
// The object-migration leg shared by every DES protocol that moves replicas
// (DESIGN.md Section 8, "Fetch leg"): distributed SRA's replications, the
// monitor's retune rollout and dagra's replica gains each create a replica
// with one transfer of o_k from a site that holds the object.
//
// A node embeds one FetchLeg. The leg answers every fetch request with one
// o_k-sized data response (both carry the bare core::ObjectId), and runs the
// node's own fetches as exchanges on its own ReliableChannel, which shares
// the node's RetryPolicy and RetryStats. One rule covers every protocol:
//   * a fetch asks the holder first and, past half the retry budget, the
//     object's primary, which always holds it;
//   * the response echoes the fetch's exchange key, and the first one
//     completes the fetch; a repeated or late response counts one duplicate;
//   * a give-up closes the fetch;
//   * a crash drops every in-flight fetch without a callback.
// The node hears back through FetchClient::fetched exactly once per fetch a
// crash did not drop. What a failed fetch means stays the node's business.

#include <cstddef>
#include <cstdint>

#include "core/problem.hpp"
#include "sim/reliable_channel.hpp"

namespace drep::sim {

/// The node side of a FetchLeg.
class FetchClient {
 public:
  /// The fetch opened with `tag` is over: the object arrived, or (`arrived`
  /// false) every attempt went unanswered.
  virtual void fetched(std::uint64_t tag, bool arrived) = 0;

 protected:
  ~FetchClient() = default;
};

class FetchLeg final : private ChannelClient {
 public:
  FetchLeg(DesNetwork& network, SiteId self, const core::Problem& problem,
           const RetryPolicy& policy, RetryStats& stats, FetchClient& client);

  /// Fetches `object` to this site, asking `holder` first; the node hears
  /// back with `tag`.
  void fetch(core::ObjectId object, SiteId holder, std::uint64_t tag);

  /// Serves a kFetchRequest or settles a kFetchResponse and returns true;
  /// returns false for every other kind. Call after open(message).
  bool handle(const Message& message);

  /// The site crashed: in-flight fetches are lost, with no callback.
  void on_crash();

 private:
  struct Fetch {
    core::ObjectId object = 0;
    SiteId holder = 0;
    std::uint64_t tag = 0;
  };

  std::size_t transmit(ExchangeKey key, std::size_t attempt) override;
  void give_up(ExchangeKey key) override;

  DesNetwork* network_;
  SiteId self_;
  const core::Problem* problem_;
  std::size_t holder_attempts_;  // attempts 0..this ask the holder
  FetchClient* client_;
  ReliableChannel<Fetch> channel_;
};

}  // namespace drep::sim
