// Shared helpers for the figure benches: canonical parameter sets matching
// the paper's setup (§5), shape-check reporting and fail-loud flag parsing.
//
// Every fig bench prints (a) an aligned table of the series the paper
// plots, (b) the same rows as CSV, and (c) `# shape-check:` lines asserting
// the paper's qualitative findings on this run's numbers.
#pragma once

#include <exception>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/coordinator.h"
#include "core/experiment.h"
#include "obs/session.h"
#include "peak_rss.h"
#include "util/flags.h"
#include "util/table.h"

namespace ecgf::bench {

/// Paper defaults: L = 25 landmarks, M = 2, θ = 2.
inline core::SchemeConfig paper_scheme_config() {
  core::SchemeConfig config;
  config.num_landmarks = 25;
  config.m_multiplier = 2;
  config.theta = 2.0;
  return config;
}

/// Canonical testbed parameters for the simulation figures (3, 8, 9).
inline core::TestbedParams paper_testbed_params(std::size_t cache_count) {
  core::TestbedParams params;
  params.cache_count = cache_count;
  params.catalog.document_count = 4000;
  params.workload.duration_ms = 300'000.0;  // 5 simulated minutes
  params.workload.requests_per_cache_per_s = 2.0;
  params.workload.zipf_alpha = 0.9;
  params.workload.similarity = 0.8;
  return params;
}

/// Canonical simulator configuration for the latency figures.
inline sim::SimulationConfig paper_sim_config() {
  sim::SimulationConfig config;
  config.cache_capacity_bytes = 2ull << 20;  // 2 MB per cache
  config.policy = cache::PolicyKind::kUtility;
  config.beacons_per_group = 3;
  return config;
}

/// Emit one shape-check line; `ok` is this run's verdict on a qualitative
/// claim from the paper.
inline void shape_check(const std::string& claim, bool ok) {
  std::cout << "# shape-check: " << (ok ? "PASS" : "FAIL") << " — " << claim
            << '\n';
}

inline void print_table(const util::Table& table) {
  table.print(std::cout);
  std::cout << "\n-- CSV --\n";
  table.print_csv(std::cout);
  std::cout << '\n';
}

/// Parse a bench's flags, failing loudly. --help prints the flag list and
/// yields exit code 0; an unknown flag, a missing value or a stray
/// positional argument prints the error and the list and yields 2.
/// nullopt = go ahead and run.
inline std::optional<int> parse_flags(util::Flags& flags, int argc,
                                      char** argv) {
  try {
    if (!flags.parse(argc, argv)) {
      std::cout << flags.help(argv[0]);
      return 0;
    }
    if (!flags.positional().empty()) {
      throw std::invalid_argument("unexpected argument '" +
                                  flags.positional().front() + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n" << flags.help(argv[0]);
    return 2;
  }
  return std::nullopt;
}

}  // namespace ecgf::bench
