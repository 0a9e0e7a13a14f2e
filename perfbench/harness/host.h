#pragma once
// Host identity stamped into every result: results from unlike host
// shapes (thread count, dispatched ISA, compiler, build type, pool size)
// are never compared with each other.

#include <string>
#include <thread>

#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

inline std::string host_identity_json(std::size_t shards) {
  const auto flag = [](bool on) { return on ? "true" : "false"; };
  std::string s = "{\"nproc\": ";
  s += std::to_string(std::thread::hardware_concurrency());
  s += ", \"isa\": {\"avx2\": ";
  s += flag(__builtin_cpu_supports("avx2") != 0);
  s += ", \"avx512f\": ";
  s += flag(__builtin_cpu_supports("avx512f") != 0);
  s += ", \"avxvnni\": ";
  s += flag(__builtin_cpu_supports("avxvnni") != 0);
  s += "}, \"compiler\": \"";
#if defined(__clang__)
  s += "clang ";
#elif defined(__GNUC__)
  s += "gcc ";
#endif
  s += __VERSION__;
  s += "\", \"build_type\": \"";
  s += PERFBENCH_BUILD_TYPE;
  s += "\", \"pool_size\": ";
  s += std::to_string(fuse::util::global_pool().size());
  s += ", \"shards\": ";
  s += std::to_string(shards);
  s += "}";
  return s;
}

}  // namespace perfbench
