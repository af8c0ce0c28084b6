#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "workloads/profile.hpp"

namespace parastack::workloads {

/// The paper's evaluation applications: six NAS Parallel Benchmarks, High
/// Performance Linpack, and HPCG (§7, Table 2).
enum class Bench { kBT, kCG, kFT, kLU, kMG, kSP, kHPL, kHPCG };

std::string_view bench_name(Bench bench) noexcept;

/// All benchmarks, in the paper's table order.
inline constexpr Bench kAllBenches[] = {Bench::kBT,  Bench::kCG,  Bench::kFT,
                                        Bench::kLU,  Bench::kMG,  Bench::kSP,
                                        Bench::kHPL, Bench::kHPCG};

/// The benchmark whose bench_name() is `name`; nullopt for any other name.
std::optional<Bench> bench_by_name(std::string_view name) noexcept;

/// Build the calibrated profile for a benchmark at a given input size.
/// `input` is an NPB class ("C"/"D"/"E"), an HPL matrix width ("80000"),
/// or an HPCG local-domain edge ("64"). `nranks` is needed because HPL and
/// HPCG bake their size-dependent scaling directly into the profile.
std::shared_ptr<const BenchmarkProfile> make_profile(Bench bench,
                                                     std::string_view input,
                                                     int nranks);

/// The paper's default input for a given running scale (Table 2).
std::string default_input(Bench bench, int nranks);

/// True when `input` is a real input of `bench`: an NPB class C, D or E,
/// or for HPL and HPCG a whole number of at least 1. User input goes
/// through this before make_profile, which aborts on any other NPB class
/// and would build a nonsense HPL or HPCG size.
bool valid_input(Bench bench, std::string_view input);

}  // namespace parastack::workloads
