#include "serve/load_gen.hpp"

#include <stdexcept>

namespace drep::serve {

std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t pow = 1;
  while (pow < n) pow <<= 1;
  return pow;
}

std::vector<workload::Request> make_request_ring(std::size_t sites,
                                                 std::size_t objects,
                                                 const LoadGenConfig& config,
                                                 util::Rng rng) {
  if (sites == 0 || objects == 0)
    throw std::invalid_argument("make_request_ring: empty instance");
  if (config.ring_size == 0)
    throw std::invalid_argument("make_request_ring: ring_size must be >= 1");
  if (!(0.0 <= config.write_fraction && config.write_fraction <= 1.0))
    throw std::invalid_argument(
        "make_request_ring: write_fraction must be in [0, 1]");
  const std::size_t size = round_up_pow2(config.ring_size);
  std::vector<workload::Request> ring;
  ring.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    workload::Request request;
    request.site = static_cast<core::SiteId>(rng.index(sites));
    request.object = static_cast<core::ObjectId>(rng.index(objects));
    request.is_write = rng.bernoulli(config.write_fraction);
    ring.push_back(request);
  }
  return ring;
}

}  // namespace drep::serve
