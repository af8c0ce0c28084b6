#include "simmpi/types.hpp"

namespace parastack::simmpi {

std::string_view mpi_func_name(MpiFunc f) noexcept {
  switch (f) {
    case MpiFunc::kSend:
      return "MPI_Send";
    case MpiFunc::kRecv:
      return "MPI_Recv";
    case MpiFunc::kSendrecv:
      return "MPI_Sendrecv";
    case MpiFunc::kIsend:
      return "MPI_Isend";
    case MpiFunc::kIrecv:
      return "MPI_Irecv";
    case MpiFunc::kWait:
      return "MPI_Wait";
    case MpiFunc::kWaitall:
      return "MPI_Waitall";
    case MpiFunc::kTest:
      return "MPI_Test";
    case MpiFunc::kTestany:
      return "MPI_Testany";
    case MpiFunc::kTestsome:
      return "MPI_Testsome";
    case MpiFunc::kTestall:
      return "MPI_Testall";
    case MpiFunc::kIprobe:
      return "MPI_Iprobe";
    case MpiFunc::kBarrier:
      return "MPI_Barrier";
    case MpiFunc::kBcast:
      return "MPI_Bcast";
    case MpiFunc::kReduce:
      return "MPI_Reduce";
    case MpiFunc::kAllreduce:
      return "MPI_Allreduce";
    case MpiFunc::kGather:
      return "MPI_Gather";
    case MpiFunc::kAllgather:
      return "MPI_Allgather";
    case MpiFunc::kAlltoall:
      return "MPI_Alltoall";
    case MpiFunc::kFinalize:
      return "MPI_Finalize";
  }
  return "MPI_Unknown";
}

bool is_collective(MpiFunc f) noexcept {
  switch (f) {
    case MpiFunc::kBarrier:
    case MpiFunc::kBcast:
    case MpiFunc::kReduce:
    case MpiFunc::kAllreduce:
    case MpiFunc::kGather:
    case MpiFunc::kAllgather:
    case MpiFunc::kAlltoall:
      return true;
    default:
      return false;
  }
}

}  // namespace parastack::simmpi
