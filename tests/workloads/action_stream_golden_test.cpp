// Golden digests of the per-rank action streams SyntheticProgram emits.
//
// Every field of every action, from the setup compute through kFinish, is
// hashed for every catalog benchmark at 64 and 256 ranks, on ranks
// {0, 1, n/2, n-1}, plus a synthetic profile that uses every CommPattern
// with the per-iteration variations the catalog does not (rotating roots,
// 4-neighbour blocking and busy-wait halos, stragglers). The digests were
// recorded from the original queue-based generator; any change to how the
// stream is produced must reproduce them bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "kitchen_sink_profile.hpp"
#include "simmpi/action.hpp"
#include "workloads/catalog.hpp"
#include "workloads/synthetic.hpp"

namespace parastack::workloads {
namespace {

using simmpi::Action;

class Fnv1a {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void add_value(T value) {
    add(&value, sizeof(value));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct StreamDigest {
  std::uint64_t hash = 0;
  std::uint64_t actions = 0;
};

/// Hash one rank's whole stream, kFinish included. `kinds` collects the
/// action kinds seen, so the test can show what the digests cover.
StreamDigest digest_stream(std::shared_ptr<const BenchmarkProfile> profile,
                           simmpi::Rank rank, int nranks,
                           std::set<Action::Kind>* kinds) {
  SyntheticProgram program(std::move(profile), rank, nranks, util::Rng(7));
  Fnv1a h;
  StreamDigest out;
  for (;;) {
    const Action a = program.next();
    ++out.actions;
    if (kinds != nullptr) kinds->insert(a.kind);
    h.add_value(static_cast<std::uint8_t>(a.kind));
    h.add_value(static_cast<std::int64_t>(a.compute_mean));
    h.add_value(std::bit_cast<std::uint64_t>(a.compute_cv));
    h.add_value(static_cast<std::uint64_t>(a.user_func.size()));
    h.add(a.user_func.data(), a.user_func.size());
    h.add_value(static_cast<std::int32_t>(a.peer));
    h.add_value(static_cast<std::int32_t>(a.recv_peer));
    h.add_value(static_cast<std::int32_t>(a.tag));
    h.add_value(static_cast<std::uint64_t>(a.bytes));
    h.add_value(static_cast<std::int32_t>(a.root));
    h.add_value(static_cast<std::uint8_t>(a.hang_func));
    if (a.kind == Action::Kind::kFinish) break;
  }
  out.hash = h.value();
  return out;
}

struct Golden {
  const char* name;
  int nranks;
  // Ranks 0, 1, n/2, n-1.
  std::uint64_t hash[4];
  std::uint64_t actions[4];
};

constexpr Golden kGolden[] = {
    {"BT", 64,
     {0x60ab5d0f4a9bc464ULL, 0xbdb13353eeca82d4ULL, 0x5017a80e68012634ULL,
      0x98a090fe77a50c94ULL},
     {3862, 3842, 3842, 3842}},
    {"BT", 256,
     {0xafc6ff3b9f915ca4ULL, 0xeac9757f8e8ed1e4ULL, 0x8403ba2bdf17b264ULL,
      0xa0737c1b6d5b6064ULL},
     {3862, 3842, 3842, 3842}},
    {"CG", 64,
     {0xcfe81db701b2da04ULL, 0x44157df686990b74ULL, 0xaaff53aabeb01a74ULL,
      0x4332b6749ed23434ULL},
     {13322, 13202, 13202, 13202}},
    {"CG", 256,
     {0x44a3b7fc88a2ae64ULL, 0xeb8c74fc222e6204ULL, 0xdbe0493730ea95c4ULL,
      0x3d9d16b27dc83d04ULL},
     {13322, 13202, 13202, 13202}},
    {"FT", 64,
     {0x1864c3713ca9f785ULL, 0xbfcec9e5e0b14975ULL, 0xbfcec9e5e0b14975ULL,
      0xbfcec9e5e0b14975ULL},
     {81, 79, 79, 79}},
    {"FT", 256,
     {0xc1df6f1673c6c054ULL, 0x525b94fd9d1e2a14ULL, 0x525b94fd9d1e2a14ULL,
      0x525b94fd9d1e2a14ULL},
     {81, 79, 79, 79}},
    {"LU", 64,
     {0x1fc96222ea7e7d84ULL, 0x9086f914e75cc2dcULL, 0x0573a4546a0c9664ULL,
      0x7bd3ccbb553f1c64ULL},
     {2327, 2802, 2802, 2302}},
    {"LU", 256,
     {0xa33f337877c01774ULL, 0x937a65b53a6d5444ULL, 0xdfc69abb9443d1dcULL,
      0x13e5ed35521a7ae4ULL},
     {2327, 2802, 2802, 2302}},
    {"MG", 64,
     {0xb81e4460af1e8dd8ULL, 0x5228141b9b27194cULL, 0xd69ef5c26515901cULL,
      0xb816c1322efefe7cULL},
     {1178, 1172, 1172, 1172}},
    {"MG", 256,
     {0xb854750dc90b2b34ULL, 0x62769630ca32b6fcULL, 0xb04ba86b4f2bf41cULL,
      0x5e3c0998322eaaacULL},
     {1178, 1172, 1172, 1172}},
    {"SP", 64,
     {0xf3f0436c9452f7a4ULL, 0x0e3b9e7751003f24ULL, 0xfd56705337c66b64ULL,
      0x517a853784c925e4ULL},
     {7722, 7682, 7682, 7682}},
    {"SP", 256,
     {0x3227b2346be6ffe4ULL, 0x92708919e49d8a64ULL, 0xe901e2612e4c8364ULL,
      0x4b472379f8184624ULL},
     {7722, 7682, 7682, 7682}},
    {"HPL", 64,
     {0x076b055ae27c9b12ULL, 0x5bcae12485a39fbeULL, 0x33a17912ade2f8beULL,
      0x5ce61da33563fcfeULL},
     {2438, 2422, 2422, 2422}},
    {"HPL", 256,
     {0x322e70b715079e28ULL, 0xdc392cfefd077b3cULL, 0xf0ece2a40e5518bcULL,
      0x836470c5527b344cULL},
     {2438, 2422, 2422, 2422}},
    {"HPCG", 64,
     {0xa8cb93d88edb6a14ULL, 0xfcfc6b33b2142fbcULL, 0xbd1a498b5a41e85cULL,
      0x267b88b422325edcULL},
     {5414, 5402, 5402, 5402}},
    {"HPCG", 256,
     {0x23e623c2b2bd72d4ULL, 0x3426814bb145d1fcULL, 0xc3511677de70915cULL,
      0x9be4d59b00ec2b1cULL},
     {5414, 5402, 5402, 5402}},
    {"SINK", 64,
     {0x7401fd64d80b379bULL, 0x8ddfabf850c7993bULL, 0x0bdda1afa706cebaULL,
      0x54feba145130b9baULL},
     {883, 925, 925, 877}},
    {"SINK", 256,
     {0x175bcdb609642397ULL, 0x56fcf8ba4153e837ULL, 0x1ccfdaf20b7b0622ULL,
      0xc0cd1f35642ff55eULL},
     {883, 877, 925, 877}},
};

std::shared_ptr<const BenchmarkProfile> profile_for(const std::string& name,
                                                    int nranks) {
  if (name == "SINK") return kitchen_sink_profile();
  for (const Bench bench : kAllBenches) {
    if (bench_name(bench) == name) {
      return make_profile(bench, default_input(bench, nranks), nranks);
    }
  }
  ADD_FAILURE() << "unknown bench " << name;
  return nullptr;
}

std::string golden_row(const std::string& name, int nranks,
                       const StreamDigest (&d)[4]) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "    {\"%s\", %d,\n     {0x%016llxULL, 0x%016llxULL, "
                "0x%016llxULL,\n      0x%016llxULL},\n     {%llu, %llu, "
                "%llu, %llu}},",
                name.c_str(), nranks,
                static_cast<unsigned long long>(d[0].hash),
                static_cast<unsigned long long>(d[1].hash),
                static_cast<unsigned long long>(d[2].hash),
                static_cast<unsigned long long>(d[3].hash),
                static_cast<unsigned long long>(d[0].actions),
                static_cast<unsigned long long>(d[1].actions),
                static_cast<unsigned long long>(d[2].actions),
                static_cast<unsigned long long>(d[3].actions));
  return buf;
}

TEST(ActionStreamGolden, EveryBenchAndRankMatchesRecordedDigest) {
  std::vector<std::string> names;
  for (const Bench bench : kAllBenches) names.emplace_back(bench_name(bench));
  names.emplace_back("SINK");
  std::string table;
  bool all_match = true;
  for (const std::string& name : names) {
    for (const int nranks : {64, 256}) {
      const auto profile = profile_for(name, nranks);
      ASSERT_NE(profile, nullptr);
      const simmpi::Rank ranks[4] = {0, 1, nranks / 2, nranks - 1};
      StreamDigest d[4];
      for (int i = 0; i < 4; ++i) {
        d[i] = digest_stream(profile, ranks[i], nranks, nullptr);
      }
      table += golden_row(name, nranks, d) + "\n";
      const Golden* golden = nullptr;
      for (const Golden& g : kGolden) {
        if (name == g.name && nranks == g.nranks) golden = &g;
      }
      if (golden == nullptr) {
        all_match = false;
        ADD_FAILURE() << "no golden row for " << name << "@" << nranks;
        continue;
      }
      for (int i = 0; i < 4; ++i) {
        if (d[i].hash != golden->hash[i] ||
            d[i].actions != golden->actions[i]) {
          all_match = false;
          ADD_FAILURE() << name << "@" << nranks << " rank " << ranks[i]
                        << ": " << d[i].actions << " actions, digest 0x"
                        << std::hex << d[i].hash << std::dec
                        << "; recorded " << golden->actions[i]
                        << " actions, digest 0x" << std::hex
                        << golden->hash[i];
        }
      }
    }
  }
  if (!all_match) std::printf("measured digests:\n%s", table.c_str());
}

TEST(ActionStreamGolden, DigestsCoverEveryEmittedKind) {
  // What the digests above pin down: every kind the generator can emit
  // (fault kinds come from the injector, not the profile).
  std::set<Action::Kind> kinds;
  for (const int nranks : {64, 256}) {
    for (const simmpi::Rank rank : {0, 1, nranks / 2, nranks - 1}) {
      digest_stream(kitchen_sink_profile(), rank, nranks, &kinds);
    }
  }
  using K = Action::Kind;
  for (const K kind :
       {K::kCompute, K::kSend, K::kRecv, K::kSendrecv, K::kIsend, K::kIrecv,
        K::kWaitAll, K::kTestLoop, K::kBarrier, K::kBcast, K::kReduce,
        K::kAllreduce, K::kGather, K::kAllgather, K::kAlltoall,
        K::kWriteOutput, K::kFinish}) {
    EXPECT_EQ(kinds.count(kind), 1u)
        << "kind " << static_cast<int>(kind) << " never emitted";
  }
}

TEST(ActionStreamGolden, RootsRotateAndComputeDecays) {
  SyntheticProgram program(kitchen_sink_profile(), 1, 64, util::Rng(7));
  std::set<simmpi::Rank> bcast_roots;
  sim::Time first_panel = -1;
  sim::Time last_panel = -1;
  int outputs = 0;
  for (;;) {
    const Action a = program.next();
    if (a.kind == Action::Kind::kFinish) break;
    if (a.kind == Action::Kind::kBcast) bcast_roots.insert(a.root);
    if (a.kind == Action::Kind::kWriteOutput) ++outputs;
    if (a.kind == Action::Kind::kCompute && a.user_func == "sink_panel") {
      if (first_panel < 0) first_panel = a.compute_mean;
      last_panel = a.compute_mean;
    }
  }
  EXPECT_EQ(bcast_roots.size(), 24u);  // one root per iteration
  EXPECT_LT(last_panel, first_panel);
  EXPECT_EQ(outputs, 0);  // only rank 0 writes progress records

  SyntheticProgram rank0(kitchen_sink_profile(), 0, 64, util::Rng(7));
  for (;;) {
    const Action a = rank0.next();
    if (a.kind == Action::Kind::kFinish) break;
    if (a.kind == Action::Kind::kWriteOutput) ++outputs;
  }
  EXPECT_EQ(outputs, 6);  // iterations 0, 4, ..., 20
}

}  // namespace
}  // namespace parastack::workloads
