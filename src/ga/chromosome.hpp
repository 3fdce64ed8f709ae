#pragma once
// Chromosome representation shared by GRA and AGRA.
//
// A chromosome is a flat string of 0/1 genes stored one-per-byte: GRA uses
// length M·N (site-major, matching the paper's encoding: gene block i holds
// the N object bits of site i), AGRA uses length M (one bit per site for a
// single object). Byte-per-bit keeps the cost evaluator's span interface
// allocation-free and the crossover/mutation operators trivially correct;
// the evaluation itself, not bit twiddling, dominates runtime.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace drep::ga {

using Chromosome = std::vector<std::uint8_t>;

/// Number of 1-genes.
[[nodiscard]] std::size_t count_ones(std::span<const std::uint8_t> genes);

/// Number of positions where the two chromosomes differ. Requires equal
/// lengths (throws std::invalid_argument otherwise).
[[nodiscard]] std::size_t hamming_distance(std::span<const std::uint8_t> a,
                                           std::span<const std::uint8_t> b);

/// Σ sizes[k] over the genes with row[k] != 0, k ascending: the storage
/// load of one site's gene row. The row is read 8 genes per word and only
/// nonzero bytes add, so the additions and their order are a byte loop's
/// and the sum is bit-identical to one. Throws std::invalid_argument when
/// sizes is shorter than row.
[[nodiscard]] double gene_load(std::span<const std::uint8_t> row,
                               std::span<const double> sizes);

/// Swaps genes [begin, end) between two equal-length chromosomes. Throws
/// std::invalid_argument on length mismatch or an out-of-range window.
void swap_range(Chromosome& a, Chromosome& b, std::size_t begin,
                std::size_t end);

/// Invokes callback(position) for every gene selected independently with
/// probability `rate`, in increasing position order. Implemented with
/// geometric gap sampling, so the cost is proportional to the number of
/// selected genes rather than the chromosome length.
void for_each_mutation_site(std::size_t length, double rate, util::Rng& rng,
                            const std::function<void(std::size_t)>& callback);

}  // namespace drep::ga
