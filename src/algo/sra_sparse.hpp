#pragma once
// Former names of the partial-row SRA entry points. SRA walks demand rows
// for every Problem (algo/sra.hpp), so a partial-row instance from
// workload::build_sparse_instance goes through solve_sra itself; these
// aliases keep older callers compiling.

#include "algo/sra.hpp"

namespace drep::core {
using SparseInstance = Problem;
}  // namespace drep::core

namespace drep::algo {

using SparseSraResult = AlgorithmResult;

[[nodiscard]] inline AlgorithmResult solve_sra_sparse(
    const core::Problem& problem, const SraConfig& config, util::Rng& rng,
    SraStats* stats = nullptr) {
  return solve_sra(problem, config, rng, stats);
}

}  // namespace drep::algo
