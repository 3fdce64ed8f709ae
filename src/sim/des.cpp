#include "sim/des.hpp"

#include <stdexcept>
#include <utility>

#include "audit/gate.hpp"
#include "obs/metrics.hpp"

namespace drep::sim {

DesNetwork::DesNetwork(const net::CostMatrix& costs, double latency_per_cost)
    : costs_(&costs),
      latency_per_cost_(latency_per_cost),
      nodes_(costs.sites(), nullptr) {
  if (latency_per_cost < 0.0)
    throw std::invalid_argument("DesNetwork: negative latency factor");
}

void DesNetwork::attach(SiteId site, Node& node) {
  if (site >= nodes_.size())
    throw std::out_of_range("DesNetwork::attach: site out of range");
  nodes_[site] = &node;
}

void DesNetwork::set_faults(FaultPlan plan) {
  plan.validate();
  for (const CrashWindow& window : plan.crashes) {
    if (window.site >= nodes_.size())
      throw std::invalid_argument("DesNetwork::set_faults: crash site out of range");
  }
  faults_ = std::move(plan);
  fault_rng_ = util::Rng(faults_->seed);
  // Notify nodes at every window edge. Edge events are scheduled up front
  // (before any protocol traffic at the same timestamp), so a node crashed
  // from t=0 sees on_crash before its bootstrap messages would fire.
  for (const CrashWindow& window : faults_->crashes) {
    const SiteId site = window.site;
    queue_.schedule(window.from, [this, site] {
      if (nodes_[site] != nullptr) nodes_[site]->on_crash();
    });
    if (window.until < std::numeric_limits<double>::infinity()) {
      queue_.schedule(window.until, [this, site] {
        if (nodes_[site] != nullptr) nodes_[site]->on_recover();
      });
    }
  }
}

double DesNetwork::worst_one_way_latency() noexcept {
  if (worst_latency_ >= 0.0) return worst_latency_;
  double worst = 0.0;
  for (SiteId i = 0; i < nodes_.size(); ++i) {
    for (SiteId j = 0; j < nodes_.size(); ++j) {
      const double latency = latency_per_cost_ * costs_->at(i, j);
      if (latency > worst) worst = latency;
    }
  }
  worst_latency_ = worst;
  return worst;
}

void DesNetwork::send(SiteId from, SiteId to, double size_units,
                      Envelope envelope) {
  ++stats_.sent_messages;
  const double cost = costs_->at(from, to);
  double latency = latency_per_cost_ * cost;
  if (faults_) {
    // A crashed site neither sends nor receives.
    if (faults_->site_down(from, queue_.now())) {
      ++stats_.dropped_site_down;
      DREP_COUNT("drep_des_dropped_site_down_total", 1);
      return;
    }
    if (from != to) {
      // Draw both decisions unconditionally so the fault stream consumed
      // per message is independent of the configured rates.
      const bool dropped = fault_rng_.bernoulli(faults_->drop_probability);
      const bool spiked = fault_rng_.bernoulli(faults_->spike_probability);
      if (dropped) {
        ++stats_.dropped_link;
        DREP_COUNT("drep_des_dropped_link_total", 1);
        return;
      }
      if (spiked) {
        latency *= faults_->spike_factor;
        ++stats_.latency_spikes;
        DREP_COUNT("drep_des_latency_spikes_total", 1);
      }
    }
  }
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  in_flight_[slot] = Message{from, to, size_units, std::move(envelope)};
  queue_.schedule_in(latency, [this, slot] { deliver(slot); });
}

void DesNetwork::deliver(std::uint32_t slot) {
  // Move the message out and free its slot before anything can throw or
  // send: a handler's sends may grow the store and reuse the slot.
  const Message message = std::move(in_flight_[slot]);
  free_slots_.push_back(slot);
  if (faults_ && faults_->site_down(message.to, queue_.now())) {
    ++stats_.dropped_site_down;
    DREP_COUNT("drep_des_dropped_site_down_total", 1);
    return;
  }
  if (message.size_units > 0) {
    const double cost = costs_->at(message.from, message.to);
    stats_.data_traffic += message.size_units * cost;
    ++stats_.data_messages;
    DREP_COUNT("drep_des_data_messages_total", 1);
    DREP_COUNT("drep_des_traffic_units_total", message.size_units * cost);
  } else {
    ++stats_.control_messages;
    DREP_COUNT("drep_des_control_messages_total", 1);
  }
  Node* node = nodes_[message.to];
  if (node == nullptr)
    throw std::logic_error("DesNetwork: message to unattached site");
  node->handle(message);
}

void DesNetwork::run() {
  queue_.run();
  // Audit (compiled out unless DREP_AUDIT=ON): after the queue drains, every
  // message ever sent must be accounted for as delivered or dropped.
  DREP_AUDIT_ENFORCE("des/run",
                     ::drep::audit::check_message_conservation(
                         {.sent = stats_.sent_messages,
                          .delivered_data = stats_.data_messages,
                          .delivered_control = stats_.control_messages,
                          .dropped_link = stats_.dropped_link,
                          .dropped_site_down = stats_.dropped_site_down,
                          .in_flight = 0}));
}

}  // namespace drep::sim
