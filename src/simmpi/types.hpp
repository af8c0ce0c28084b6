#pragma once

#include <cstdint>
#include <string_view>

namespace parastack::simmpi {

/// MPI rank within the (single, world) communicator.
using Rank = std::int32_t;

/// The MPI functions the simulated runtime models. Blocking/half-blocking/
/// busy-wait communication styles (paper §3) are all expressible.
enum class MpiFunc : std::uint8_t {
  kSend,
  kRecv,
  kSendrecv,
  kIsend,
  kIrecv,
  kWait,
  kWaitall,
  kTest,
  kTestany,
  kTestsome,
  kTestall,
  kIprobe,
  kBarrier,
  kBcast,
  kReduce,
  kAllreduce,
  kGather,
  kAllgather,
  kAlltoall,
  kFinalize,
};

/// Canonical function name as it would appear in a stack frame ("MPI_Send").
std::string_view mpi_func_name(MpiFunc f) noexcept;

/// True for the collective operations.
bool is_collective(MpiFunc f) noexcept;

}  // namespace parastack::simmpi
