#include "workloads/catalog.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "util/check.hpp"

namespace parastack::workloads {

namespace {

using sim::from_millis;
using sim::from_seconds;

constexpr std::size_t KiB = 1024;
constexpr std::size_t MiB = 1024 * 1024;

/// NPB class work multipliers relative to class D (grid-point ratios,
/// compressed to keep simulated runtimes near the paper's Table 6 numbers).
double npb_class_factor(Bench bench, std::string_view input) {
  double c = 0.2, e = 10.0;  // generic defaults
  switch (bench) {
    case Bench::kBT:
      e = 12.0;
      break;
    case Bench::kCG:
      e = 10.0;
      break;
    case Bench::kFT:
      e = 4.0;
      break;  // keeps FT(E)'s transpose ~3s (Table 1)
    case Bench::kLU:
      e = 12.0;
      break;
    case Bench::kMG:
      // The MG profile is calibrated AT class E (the paper only runs MG at
      // E), so E is the identity and smaller classes scale down.
      if (input == "C") return 0.1;
      if (input == "D") return 0.33;
      if (input == "E") return 1.0;
      break;
    case Bench::kSP:
      e = 7.0;
      break;
    default:
      PS_UNREACHABLE("npb_class_factor on non-NPB benchmark");
  }
  if (input == "C") return c;
  if (input == "D") return 1.0;
  if (input == "E") return e;
  PS_CHECK(false, "unknown NPB input class (use C, D or E)");
  return 1.0;
}

/// Scale a finished profile's compute by f and message sizes by f^(2/3)
/// (surface-to-volume).
void apply_class_factor(BenchmarkProfile& profile, double f) {
  const double bytes_factor = std::pow(f, 2.0 / 3.0);
  for (Phase& phase : profile.phases) {
    if (phase.class_invariant) continue;
    phase.compute_mean =
        static_cast<sim::Time>(static_cast<double>(phase.compute_mean) * f);
    phase.bytes = static_cast<std::size_t>(static_cast<double>(phase.bytes) *
                                           bytes_factor);
  }
}

BenchmarkProfile bt_profile() {
  BenchmarkProfile p;
  p.name = "BT";
  p.iterations = 200;
  p.phases = {
      {"bt_x_solve", from_millis(260), 0.09, CommPattern::kHaloHalfBlocking,
       400 * KiB},
      {"bt_y_solve", from_millis(260), 0.09, CommPattern::kHaloHalfBlocking,
       400 * KiB},
      {"bt_z_solve", from_millis(260), 0.09, CommPattern::kHaloHalfBlocking,
       400 * KiB},
      {"bt_add_rhs", from_millis(60), 0.08, CommPattern::kAllreduce, 64,
       /*every=*/5},
  };
  return p;
}

BenchmarkProfile cg_profile() {
  BenchmarkProfile p;
  p.name = "CG";
  p.iterations = 1200;
  p.phases = {
      {"cg_spmv", from_millis(36), 0.10, CommPattern::kHaloHalfBlocking,
       150 * KiB},
      {"cg_dot_rho", from_millis(3), 0.15, CommPattern::kAllreduce, 16},
      {"cg_axpy", from_millis(7), 0.10, CommPattern::kNone, 0},
      {"cg_dot_norm", from_millis(3), 0.15, CommPattern::kAllreduce, 16},
  };
  return p;
}

BenchmarkProfile ft_profile() {
  BenchmarkProfile p;
  p.name = "FT";
  p.iterations = 11;
  p.phases = {
      {"ft_evolve", from_seconds(2.1), 0.07, CommPattern::kNone, 0},
      // The transpose: all ranks enter a long Alltoall together; this is the
      // multi-second S_out == 0 stretch that breaks fixed timeouts (Table 1).
      {"ft_fft_local_1", from_seconds(1.9), 0.07, CommPattern::kAlltoall,
       40 * MiB},
      {"ft_fft_local_2", from_seconds(1.9), 0.07, CommPattern::kAlltoall,
       40 * MiB},
      {"ft_checksum", from_millis(40), 0.10, CommPattern::kAllreduce, 16},
  };
  return p;
}

BenchmarkProfile lu_profile() {
  BenchmarkProfile p;
  p.name = "LU";
  p.iterations = 250;
  p.phases = {
      // SSOR wavefront, lower triangular sweep: the pipeline gives LU its
      // fine-grained, spiky S_out waveform (paper Figure 2).
      {"lu_jacld", from_millis(18), 0.12, CommPattern::kNone, 0},
      {"", 0, 0.0, CommPattern::kPipelineRecv, 40 * KiB},
      // Pencil stages are tile-sized at every input class (class_invariant),
      // otherwise the wavefront fill time would blow up with the class
      // factor and dominate large-scale runs unrealistically.
      {"lu_blts_stage", from_millis(0.35), 0.20, CommPattern::kPipelineSend,
       40 * KiB, 1, 2, false, false, /*class_invariant=*/true},
      {"lu_blts_bulk", from_millis(170), 0.10, CommPattern::kNone, 0},
      // Upper triangular sweep runs the pipeline the other way.
      {"lu_jacu", from_millis(18), 0.12, CommPattern::kNone, 0},
      {"", 0, 0.0, CommPattern::kPipelineRecvBack, 40 * KiB},
      {"lu_buts_stage", from_millis(0.35), 0.20, CommPattern::kPipelineSendBack,
       40 * KiB, 1, 2, false, false, /*class_invariant=*/true},
      {"lu_buts_bulk", from_millis(170), 0.10, CommPattern::kNone, 0},
      {"lu_l2norm", from_millis(8), 0.10, CommPattern::kAllreduce, 64,
       /*every=*/5},
  };
  return p;
}

BenchmarkProfile mg_profile() {
  // Calibrated at class E (the paper only runs MG at E, Table 2).
  BenchmarkProfile p;
  p.name = "MG";
  p.iterations = 60;
  p.phases = {
      {"mg_resid", from_seconds(1.2), 0.09, CommPattern::kHaloHalfBlocking,
       300 * KiB},
      {"mg_rprj3_down", from_seconds(1.2), 0.09, CommPattern::kHaloHalfBlocking,
       150 * KiB},
      {"mg_interp_up", from_seconds(0.6), 0.09, CommPattern::kHaloHalfBlocking,
       150 * KiB},
      {"mg_norm2u3", from_millis(20), 0.10, CommPattern::kAllreduce, 16,
       /*every=*/2},
  };
  return p;
}

BenchmarkProfile sp_profile() {
  BenchmarkProfile p;
  p.name = "SP";
  p.iterations = 400;
  p.phases = {
      {"sp_x_solve", from_millis(200), 0.09, CommPattern::kHaloHalfBlocking,
       250 * KiB},
      {"sp_y_solve", from_millis(200), 0.09, CommPattern::kHaloHalfBlocking,
       250 * KiB},
      {"sp_z_solve", from_millis(200), 0.09, CommPattern::kHaloHalfBlocking,
       250 * KiB},
      {"sp_add", from_millis(20), 0.08, CommPattern::kAllreduce, 64,
       /*every=*/5},
  };
  return p;
}

BenchmarkProfile hpl_profile(double n, int nranks) {
  // Calibration anchor: n0 = 80000 at 256 ranks. Iterations track the
  // panel count (~n / 500, capped); trailing-update work per iteration
  // scales as n^1.5 / P against the anchor and decays quadratically as the
  // trailing matrix shrinks (classic LU factorization shape).
  constexpr double kAnchorN = 80000.0;
  constexpr double kAnchorRanks = 256.0;
  constexpr double kAnchorUpdateSeconds = 1.76;
  BenchmarkProfile p;
  p.name = "HPL";
  p.reference_ranks = nranks;  // fully baked; no further rescaling
  p.compute_scaling_exp = 0.0;
  p.bytes_scaling_exp = 0.0;
  p.iterations =
      static_cast<std::uint64_t>(std::min(400.0, std::max(30.0, n / 500.0)));
  const double update = kAnchorUpdateSeconds * std::pow(n / kAnchorN, 1.5) *
                        (kAnchorRanks / static_cast<double>(nranks));
  const double panel = 0.15 * std::pow(n / kAnchorN, 1.0) *
                       (kAnchorRanks / static_cast<double>(nranks)) * 256.0 /
                       kAnchorRanks;
  // HPL does not call synchronizing MPI collectives inside the
  // factorization loop: panel broadcasts and row swaps go through its own
  // busy-wait (MPI_Test) ring algorithms — the mixed communication style
  // the paper highlights in §3/§4. A rare residual allreduce stands in for
  // the occasional library-level synchronization and carries hang
  // propagation beyond the ring neighbourhood.
  p.phases = {
      {"hpl_pdfact_panel", from_seconds(std::max(panel, 0.01)), 0.10,
       CommPattern::kNone, 0, 1, 2, false, /*decays=*/true},
      {"hpl_bcast_ring_probe", from_millis(5), 0.10, CommPattern::kHaloBusyWait,
       2 * MiB},
      {"hpl_laswp_spread", from_millis(10), 0.12, CommPattern::kHaloBusyWait,
       256 * KiB},
      {"hpl_update_dgemm", from_seconds(std::max(update, 0.02)), 0.08,
       CommPattern::kNone, 0, 1, 2, false, /*decays=*/true},
      {"hpl_residual_check", from_millis(2), 0.10, CommPattern::kAllreduce, 32,
       /*every=*/8},
  };
  return p;
}

BenchmarkProfile hpcg_profile(double local_dim, int nranks) {
  // Weak-scaled: the local domain is fixed, so per-rank work is independent
  // of the job size. Calibration anchor: 64^3 local domain.
  const double vol = std::pow(local_dim / 64.0, 3.0);
  BenchmarkProfile p;
  p.name = "HPCG";
  p.reference_ranks = nranks;
  p.compute_scaling_exp = 0.0;
  p.bytes_scaling_exp = 0.0;
  p.iterations = 120;
  const auto face_bytes =
      static_cast<std::size_t>(std::pow(local_dim / 64.0, 2.0) * 64.0 * KiB);
  p.phases = {
      {"hpcg_spmv", from_millis(120 * vol), 0.08,
       CommPattern::kHaloHalfBlocking, face_bytes, 1, 4},
      {"hpcg_symgs_fwd", from_millis(90 * vol), 0.08,
       CommPattern::kHaloHalfBlocking, face_bytes, 1, 4},
      {"hpcg_symgs_bwd", from_millis(90 * vol), 0.08,
       CommPattern::kHaloHalfBlocking, face_bytes, 1, 4},
      {"hpcg_dot_rtz", from_millis(6 * vol), 0.12, CommPattern::kAllreduce, 16},
      {"hpcg_waxpby", from_millis(24 * vol), 0.08, CommPattern::kNone, 0},
      {"hpcg_mg_coarse", from_millis(60 * vol), 0.10,
       CommPattern::kHaloHalfBlocking, face_bytes / 4, 1, 4},
      {"hpcg_dot_norm", from_millis(6 * vol), 0.12, CommPattern::kAllreduce,
       16},
  };
  // Per-rank useful FLOP per iteration: calibrated so the Tardis/256 clean
  // run lands near the paper's 29.1 GFLOPS (Table 4).
  p.flops_per_iteration = 1.30e8 * vol;
  return p;
}

}  // namespace

std::string_view bench_name(Bench bench) noexcept {
  switch (bench) {
    case Bench::kBT:
      return "BT";
    case Bench::kCG:
      return "CG";
    case Bench::kFT:
      return "FT";
    case Bench::kLU:
      return "LU";
    case Bench::kMG:
      return "MG";
    case Bench::kSP:
      return "SP";
    case Bench::kHPL:
      return "HPL";
    case Bench::kHPCG:
      return "HPCG";
  }
  return "?";
}

std::optional<Bench> bench_by_name(std::string_view name) noexcept {
  for (const Bench bench : kAllBenches) {
    if (bench_name(bench) == name) return bench;
  }
  return std::nullopt;
}

std::shared_ptr<const BenchmarkProfile> make_profile(Bench bench,
                                                     std::string_view input,
                                                     int nranks) {
  PS_CHECK(nranks >= 2, "benchmarks need at least two ranks");
  BenchmarkProfile profile;
  switch (bench) {
    case Bench::kBT:
      profile = bt_profile();
      break;
    case Bench::kCG:
      profile = cg_profile();
      break;
    case Bench::kFT:
      profile = ft_profile();
      break;
    case Bench::kLU:
      profile = lu_profile();
      break;
    case Bench::kMG:
      profile = mg_profile();
      break;
    case Bench::kSP:
      profile = sp_profile();
      break;
    case Bench::kHPL:
      profile =
          hpl_profile(std::strtod(std::string(input).c_str(), nullptr), nranks);
      profile.input = std::string(input);
      return std::make_shared<const BenchmarkProfile>(std::move(profile));
    case Bench::kHPCG:
      profile = hpcg_profile(std::strtod(std::string(input).c_str(), nullptr),
                             nranks);
      profile.input = std::string(input);
      return std::make_shared<const BenchmarkProfile>(std::move(profile));
  }
  apply_class_factor(profile, npb_class_factor(bench, input));
  profile.input = std::string(input);
  return std::make_shared<const BenchmarkProfile>(std::move(profile));
}

std::string default_input(Bench bench, int nranks) {
  // Paper Table 2.
  switch (bench) {
    case Bench::kHPL:
      if (nranks <= 256) return "80000";
      if (nranks <= 1024) return "200000";
      if (nranks <= 4096) return "250000";
      if (nranks <= 8192) return "300000";
      return "350000";
    case Bench::kHPCG:
      return "64";
    case Bench::kMG:
      return "E";
    case Bench::kFT:
      return nranks <= 256 ? "D" : "E";
    default:
      return nranks <= 256 ? "D" : "E";
  }
}

bool valid_input(Bench bench, std::string_view input) {
  if (bench == Bench::kHPL || bench == Bench::kHPCG) {
    std::uint64_t size = 0;
    const char* const end = input.data() + input.size();
    const auto [stop, error] = std::from_chars(input.data(), end, size);
    return error == std::errc() && stop == end && size >= 1;
  }
  return input == "C" || input == "D" || input == "E";
}

}  // namespace parastack::workloads
