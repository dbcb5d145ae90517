#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/trace.h"
#include "util/status.h"

namespace perfbench {

/// One workload of the closed-loop harness. The harness calls Setup (timed as
/// set-up), PrepareReferences once (untimed), then per op PrepareOp
/// (untimed), RunOp (timed) and CheckOp (untimed), and Finish at the end.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the seeded inputs, loads them and warms the engine up.
  virtual cqbounds::Status Setup() = 0;
  /// Computes the oracle's reference answers with other plans.
  virtual cqbounds::Status PrepareReferences() = 0;
  /// Readies op `op`'s inputs outside the timed region.
  virtual void PrepareOp(std::uint32_t /*op*/) {}
  /// Runs op `op`. With a tracer, records a span around every call into a
  /// layer; otherwise calls the library exactly as a user would.
  virtual cqbounds::Status RunOp(std::uint32_t op, Tracer* tracer) = 0;
  /// Checks op `op`'s answers: the reference answer where the workload has
  /// one for this op, and the AGM envelope on every evaluation.
  virtual cqbounds::Status CheckOp(std::uint32_t op) = 0;
  /// End-of-run check.
  virtual cqbounds::Status Finish() { return cqbounds::Status::OK(); }
  /// A label for the kind of op `op` was, read after RunOp: ops of one kind
  /// (one query, one batch shape) do about the same work.
  virtual std::uint32_t OpKind(std::uint32_t op) const = 0;
  /// Tries cached in the context the last op used.
  virtual std::size_t CachedTries() const = 0;
};

/// "cold-file", "warm-mutate" or "warm-read"; null for another name.
/// Working files go under `workdir`.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& workdir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
