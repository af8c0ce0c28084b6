#include "simmpi/stack.hpp"

#include <gtest/gtest.h>

#include "simmpi/types.hpp"

namespace parastack::simmpi {
namespace {

TEST(FrameClassifier, PrefixRule) {
  // Paper §5: frames starting with mpi/MPI/pmpi/PMPI are MPI frames.
  EXPECT_TRUE(frame_is_mpi("MPI_Send"));
  EXPECT_TRUE(frame_is_mpi("mpi_allreduce_"));
  EXPECT_TRUE(frame_is_mpi("PMPI_Wait"));
  EXPECT_TRUE(frame_is_mpi("pmpi_progress_wait"));
  EXPECT_FALSE(frame_is_mpi("main"));
  EXPECT_FALSE(frame_is_mpi("my_mpi_helper"));  // prefix, not substring
  EXPECT_FALSE(frame_is_mpi("Mpi_Send"));       // case-sensitive prefixes
  EXPECT_FALSE(frame_is_mpi(""));
  EXPECT_FALSE(frame_is_mpi("MP"));  // shorter than any prefix
}

TEST(CallStack, PushPopTop) {
  CallStack stack;
  EXPECT_TRUE(stack.empty());
  stack.push("main");
  stack.push("solver");
  EXPECT_EQ(stack.frames().back().name, "solver");
  stack.pop();
  EXPECT_EQ(stack.frames().back().name, "main");
}

TEST(CallStack, InMpiAnywhereInStack) {
  CallStack stack;
  stack.push("main");
  stack.push("solver");
  EXPECT_FALSE(stack.in_mpi());
  stack.push("MPI_Allreduce");
  stack.push("pmpi_progress_wait");
  EXPECT_TRUE(stack.in_mpi());
  stack.pop();
  EXPECT_TRUE(stack.in_mpi());
  stack.pop();
  EXPECT_FALSE(stack.in_mpi());
}

TEST(CallStack, InnermostMpiFrame) {
  CallStack stack;
  stack.push("main");
  EXPECT_EQ(stack.innermost_mpi_frame(), "");
  stack.push("MPI_Bcast");
  stack.push("helper_copy");  // user helper below the MPI frame
  EXPECT_EQ(stack.innermost_mpi_frame(), "MPI_Bcast");
  stack.push("PMPI_Bcast_intra");
  EXPECT_EQ(stack.innermost_mpi_frame(), "PMPI_Bcast_intra");
}

TEST(CallStackDeath, PopEmpty) {
  CallStack stack;
  EXPECT_DEATH(stack.pop(), "empty");
}

TEST(MpiFuncNames, MatchNamingRule) {
  // Every modelled function must classify as MPI by its own name.
  for (int f = 0; f <= static_cast<int>(MpiFunc::kFinalize); ++f) {
    const auto name = mpi_func_name(static_cast<MpiFunc>(f));
    EXPECT_TRUE(frame_is_mpi(name)) << name;
  }
}

TEST(MpiFuncSets, Collectives) {
  EXPECT_TRUE(is_collective(MpiFunc::kAllreduce));
  EXPECT_TRUE(is_collective(MpiFunc::kBcast));
  EXPECT_FALSE(is_collective(MpiFunc::kSend));
}

}  // namespace
}  // namespace parastack::simmpi
