// The benchmark's four workloads. Each one turns a seed into a fixed set
// of inputs (ScenarioSpecs or live transfers) once, then runs that whole
// set per round; the runner (main.cpp) repeats rounds for the measured
// time and reports medians over them. See README.md for why each workload
// exists and which layers it stresses.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace perfbench {

enum class WorkloadKind { kPaperGrid, kFleetSingle, kFleetSharded, kLiveLoopback };
inline constexpr WorkloadKind kAllWorkloads[] = {
    WorkloadKind::kPaperGrid, WorkloadKind::kFleetSingle,
    WorkloadKind::kFleetSharded, WorkloadKind::kLiveLoopback};
const char* workload_name(WorkloadKind w);
std::optional<WorkloadKind> parse_workload(std::string_view name);

// kFull is what the benchmark measures; kSmall is a seconds-scale cut of
// the same generator, used for the committed digest check and self-test.
enum class Size { kFull, kSmall };

inline constexpr std::uint64_t kDefaultSeed = 1;

// Simulated statistics per sender variant. Its text form is the digest:
// equal digests mean two builds simulated the same thing.
struct Digest {
  struct Row {
    std::uint64_t flows = 0;
    std::uint64_t done = 0;      // finite transfers completed
    std::uint64_t bytes = 0;     // in-order bytes delivered
    std::uint64_t segments = 0;  // data segments sent, retransmissions included
    std::uint64_t rtx = 0;
    std::uint64_t timeouts = 0;
  };
  std::array<Row, 8> rows{};

  std::string text() const;
  std::string hash() const;
  bool operator==(const Digest& o) const { return text() == o.text(); }
};

// Per-round layer counters. Everything except `spans` is counted on every
// round; `spans` is filled only on traced rounds.
struct LayerRaw {
  std::uint64_t builds = 0;         // scenarios / fleets / transfers set up
  std::uint64_t build_ns = 0;       // summed construction time
  std::uint64_t job_ns = 0;         // summed construction + run time
  std::uint64_t pool_wall_ns = 0;   // sweep wall (grid)
  std::uint64_t pool_threads = 0;   // sweep threads (grid)
  std::uint64_t allocs = 0;         // operator new calls during runs
  std::uint64_t events = 0;         // simulator events executed
  std::uint64_t heap_fallbacks = 0; // scheduler callbacks that spilled to the heap
  std::uint64_t queue_arrivals = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t queue_dequeues = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t rtx = 0;
  std::uint64_t rr_episodes = 0;    // recovery episodes entered by RR senders
  std::uint64_t pdes_rounds = 0;
  std::uint64_t cross_pkts = 0;
  std::uint64_t link_traversals = 0;
  std::uint64_t shards = 0;
  std::uint64_t run_ns = 0;         // wall of the engine's run()
  std::uint64_t run_cpu_ns = 0;     // process CPU time during run()
  std::uint64_t polls = 0;
  std::uint64_t idle_polls = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t unroutable = 0;
  SpanTotals spans;

  void add(const LayerRaw& o);
};

struct RoundResult {
  double wall_s = 0.0;   // host time the throughput metrics divide by
  double setup_s = 0.0;  // the round's set-up time (README.md, setup_s)
  std::uint64_t segments = 0;       // data segments sent, retransmissions included
  std::uint64_t goodput_bytes = 0;  // in-order bytes delivered
  std::vector<double> xfer_ms;      // per-operation completion times
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Digest digest;
  LayerRaw raw;
  std::string note;  // one line of workload-specific facts for the log
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Runs every input once. `traced` installs the decorators of trace.hpp.
  virtual RoundResult round(bool traced) = 0;
  // One line naming the inputs (sizes, counts) for the log.
  virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> make_workload(WorkloadKind w, std::uint64_t seed,
                                        Size size);

}  // namespace perfbench
