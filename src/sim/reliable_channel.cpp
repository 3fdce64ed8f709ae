#include "sim/reliable_channel.hpp"

namespace drep::sim {

namespace {

constexpr std::uint64_t kGenerationShift = 32;

std::uint64_t mix(std::uint64_t stream, std::uint64_t seq) noexcept {
  std::uint64_t h = stream * 0x9E3779B97F4A7C15ULL ^ seq;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

ChannelCore::ChannelCore(DesNetwork& network, SiteId self,
                         const RetryPolicy& policy, RetryStats& stats,
                         ChannelClient& client)
    : network_(&network),
      self_(self),
      policy_(policy),
      stats_(&stats),
      client_(&client) {}

double ChannelCore::base() {
  if (base_ == 0.0)
    base_ = policy_.resolve_base(network_->worst_one_way_latency());
  return base_;
}

double ChannelCore::deadline() {
  return policy_.give_up_time(base()) + 2.0 * base();
}

bool ChannelCore::is_open(ExchangeKey key) const noexcept {
  const std::uint32_t slot = slot_of(key);
  return slot < slots_.size() && slots_[slot].open &&
         slots_[slot].generation == (key >> kGenerationShift);
}

ExchangeKey ChannelCore::open_key(std::uint32_t slot) const noexcept {
  const Slot& s = slots_[slot];
  return s.open ? (std::uint64_t{s.generation} << kGenerationShift) | slot : 0;
}

ExchangeKey ChannelCore::reserve(std::size_t extra_retries) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  ++s.generation;  // starts at 1, so no key is ever 0
  s.open = true;
  s.attempt = 0;
  s.max_retries = policy_.max_retries + extra_retries;
  return (std::uint64_t{s.generation} << kGenerationShift) | slot;
}

void ChannelCore::start(ExchangeKey key) {
  (void)client_->transmit(key, 0);
  if (armed()) arm(key);
}

bool ChannelCore::settle(ExchangeKey key) {
  if (!is_open(key)) {
    ++stats_->duplicates;
    return false;
  }
  close(key);
  return true;
}

void ChannelCore::close(ExchangeKey key) noexcept {
  if (!is_open(key)) return;
  slots_[slot_of(key)].open = false;
  free_.push_back(slot_of(key));
}

void ChannelCore::restart(ExchangeKey key) {
  ++stats_->retries;
  (void)client_->transmit(key, 0);
  slots_[slot_of(key)].attempt = 0;
  arm(key);
}

void ChannelCore::arm(ExchangeKey key) {
  // [this, key] fits std::function's inline storage: no allocation.
  network_->queue().schedule_in(
      policy_.timeout_for(base(), slots_[slot_of(key)].attempt),
      [this, key] { on_timer(key); });
}

void ChannelCore::on_timer(ExchangeKey key) {
  if (!is_open(key)) return;                // settled, closed, or reused
  if (!network_->site_up(self_)) return;    // silent while down
  ++stats_->timeouts;
  Slot& slot = slots_[slot_of(key)];
  if (slot.attempt >= slot.max_retries) {
    ++stats_->give_ups;
    client_->give_up(key);
    return;
  }
  const std::size_t attempt = ++slot.attempt;
  stats_->retries += client_->transmit(key, attempt);
  arm(key);
}

bool ChannelCore::accept(SiteId sender, std::uint16_t stream,
                         std::uint64_t seq) {
  if (2 * (seen_count_ + 1) > seen_.size()) {
    // Grow at half load, re-inserting every accepted triple.
    std::vector<Seen> old(seen_.empty() ? 16 : 2 * seen_.size(),
                          Seen{kFree, 0});
    old.swap(seen_);
    const std::size_t mask = seen_.size() - 1;
    for (const Seen& entry : old) {
      if (entry.stream == kFree) continue;
      std::size_t at = mix(entry.stream, entry.seq) & mask;
      while (seen_[at].stream != kFree) at = (at + 1) & mask;
      seen_[at] = entry;
    }
  }
  const std::uint64_t key = (std::uint64_t{sender} << 16) | stream;
  const std::size_t mask = seen_.size() - 1;
  for (std::size_t at = mix(key, seq) & mask;; at = (at + 1) & mask) {
    Seen& entry = seen_[at];
    if (entry.stream == kFree) {
      entry = {key, seq};
      ++seen_count_;
      return true;
    }
    if (entry.stream == key && entry.seq == seq) return false;
  }
}

}  // namespace drep::sim
