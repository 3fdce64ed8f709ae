#pragma once
// One reliable-delivery layer for every DES protocol (DESIGN.md Section 8,
// "ReliableChannel").
//
// Each protocol node owns one ReliableChannel (and its sim::FetchLeg one
// more) and opens an *exchange* per message that must reach its peer. The
// channel owns the retry timers (only under a FaultPlan), silence while its
// own site is down, give-up, restart on recover, RetryStats, the shared
// deadline rule, and the exactly-once receive filter. Acks stay the
// protocol's own messages and the channel sends nothing itself, so the order
// of sends, timers and fault-RNG draws is exactly what the node asks for.
//
// Ordering contract: no delivery order is assumed. A reply settles its
// exchange by key, and accept() admits each (sender, stream, seq) exactly
// once in any arrival order — a message overtaken by a later one is still
// delivered.
//
// Exchanges live in a slab reused through a free list and timers capture
// only (channel, key), which fits std::function's inline storage, so
// steady-state exchanges and attempts allocate nothing.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/des.hpp"
#include "sim/envelope.hpp"

namespace drep::sim {

/// Names one exchange of one channel: (generation << 32) | slot. Never 0, so
/// protocols keep 0 as "no exchange". A key stays unique for the channel's
/// lifetime, so protocols use it as the message id their replies echo.
using ExchangeKey = std::uint64_t;

/// The protocol side of a channel, implemented by the node that owns it.
class ChannelClient {
 public:
  /// Sends attempt `attempt` of `key` (0 = the first send and a restart's
  /// resend). Returns the retransmissions to count for attempt > 0: 1 for a
  /// unicast, the number of legs re-sent for a multicast.
  virtual std::size_t transmit(ExchangeKey key, std::size_t attempt) = 0;
  /// `key` exhausted its retries; the give-up is already counted and no
  /// timer is left. The exchange stays open: close it here unless a late
  /// reply should still settle it (or a recover restart it).
  virtual void give_up(ExchangeKey key) = 0;

 protected:
  ~ChannelClient() = default;
};

/// Cargo-independent half of ReliableChannel.
class ChannelCore {
 public:
  ChannelCore(DesNetwork& network, SiteId self, const RetryPolicy& policy,
              RetryStats& stats, ChannelClient& client);
  ChannelCore(const ChannelCore&) = delete;
  ChannelCore& operator=(const ChannelCore&) = delete;

  /// True when the network has a FaultPlan: timers run and peers ack.
  [[nodiscard]] bool armed() const noexcept { return network_->faults_armed(); }
  [[nodiscard]] RetryStats& stats() noexcept { return *stats_; }

  /// How long a collector waits before proceeding without a peer: the
  /// sender's whole retry ladder plus a round trip of two base timeouts.
  [[nodiscard]] double deadline();

  [[nodiscard]] bool is_open(ExchangeKey key) const noexcept;
  /// The protocol's reply arrived: closes `key` and returns true; a key that
  /// is no longer open counts a duplicate and returns false.
  bool settle(ExchangeKey key);
  /// Closes `key` without counting anything; no-op when already closed.
  void close(ExchangeKey key) noexcept;
  /// Resend on recover: counts a retry, transmits attempt 0 again, resets
  /// the backoff and arms a fresh timer. A still-pending timer of the old
  /// chain keeps running and shares the reset attempt counter.
  void restart(ExchangeKey key);

  /// Exactly-once receive filter: true the first time (sender, stream, seq)
  /// is seen, in any arrival order; false for every repeat.
  [[nodiscard]] bool accept(SiteId sender, std::uint16_t stream,
                            std::uint64_t seq);
  /// accept() over a message's (from, envelope kind, envelope seq).
  [[nodiscard]] bool accept(const Message& message) {
    return accept(message.from,
                  static_cast<std::uint16_t>(message.envelope.kind),
                  message.envelope.seq);
  }

 protected:
  ~ChannelCore() = default;
  [[nodiscard]] static std::uint32_t slot_of(ExchangeKey key) noexcept {
    return static_cast<std::uint32_t>(key);
  }
  /// Claims a slot for a new exchange allowed max_retries + extra_retries.
  [[nodiscard]] ExchangeKey reserve(std::size_t extra_retries);
  /// Transmits attempt 0 and, when armed, arms the first timer.
  void start(ExchangeKey key);
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }
  /// Key of the exchange open in `slot`, or 0.
  [[nodiscard]] ExchangeKey open_key(std::uint32_t slot) const noexcept;

 private:
  struct Slot {
    std::uint32_t generation = 0;
    bool open = false;
    std::size_t attempt = 0;
    std::size_t max_retries = 0;
  };
  /// One accepted (sender, stream, seq); stream == kFree marks a free bucket.
  struct Seen {
    std::uint64_t stream;
    std::uint64_t seq;
  };
  static constexpr std::uint64_t kFree = ~std::uint64_t{0};

  [[nodiscard]] double base();
  void arm(ExchangeKey key);
  void on_timer(ExchangeKey key);

  DesNetwork* network_;
  SiteId self_;
  RetryPolicy policy_;
  RetryStats* stats_;
  ChannelClient* client_;
  double base_ = 0.0;  // resolved on first use
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<Seen> seen_;  // open addressing, power-of-two size
  std::size_t seen_count_ = 0;
};

/// A ReliableChannel stores one protocol-defined Cargo per open exchange:
/// what the client's transmit() needs to rebuild the message.
template <typename Cargo>
class ReliableChannel final : public ChannelCore {
 public:
  using ChannelCore::ChannelCore;

  /// Opens an exchange, transmits its attempt 0 and, when armed, arms its
  /// retry timer. The key is valid inside that first transmit().
  ExchangeKey open(Cargo cargo, std::size_t extra_retries = 0) {
    const ExchangeKey key = reserve(extra_retries);
    const std::uint32_t slot = slot_of(key);
    if (slot >= cargo_.size()) cargo_.resize(slot + 1);
    cargo_[slot] = std::move(cargo);
    start(key);
    return key;
  }
  /// The cargo of an open exchange; nullptr once it is closed.
  [[nodiscard]] Cargo* find(ExchangeKey key) noexcept {
    return is_open(key) ? &cargo_[slot_of(key)] : nullptr;
  }
  /// The cargo of `key`, which must be open (transmit/give_up hooks).
  [[nodiscard]] Cargo& operator[](ExchangeKey key) noexcept {
    return cargo_[slot_of(key)];
  }
  /// Closes every open exchange whose cargo satisfies `pred` (a crash
  /// wiping volatile state), calling it once per open exchange.
  template <typename Pred>
  void close_if(Pred&& pred) {
    for (std::uint32_t slot = 0; slot < slot_count(); ++slot) {
      const ExchangeKey key = open_key(slot);
      if (key != 0 && pred(cargo_[slot])) close(key);
    }
  }

 private:
  std::vector<Cargo> cargo_;
};

}  // namespace drep::sim
