// Deterministic parallel sweep harness.
//
// Every experiment binary in bench/ runs a grid of independent scenarios —
// each one constructs its own Simulator, topology and flows, runs it to a
// horizon, and reports a handful of numbers. The harness executes such a
// grid on a fixed-size pool of worker threads while keeping the results
// bit-identical to a serial run:
//
//  * Seeds: each job's RNG seed is derived by SplitMix64-style hashing of
//    (base_seed, job_index), never from thread identity, completion order
//    or wall-clock time. The same grid with the same base seed produces
//    the same per-job seeds under any thread count.
//  * Isolation: a job must touch nothing outside its own stack — the
//    SweepJob callback builds the whole simulation locally, and the
//    packet path keeps no process-wide mutable state (packet uids are
//    numbered by the minting endpoint, net::packet_uid). The only
//    object jobs write in common is the mutex-guarded ResultSink; what
//    else they share they only read (the log level, the SenderFactory).
//  * Ordering: the sink stores results by job index, so CSV/JSON emission
//    is byte-identical no matter how completions interleave.
//
// Thread count resolution: --threads=N beats RRTCP_SWEEP_THREADS beats
// std::thread::hardware_concurrency(); --threads=1 is the serial fallback
// (jobs run inline on the calling thread, no pool is created).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/result_sink.hpp"

namespace rrtcp::harness {

struct JobContext {
  std::size_t index;   // position of the job in the sweep's vector
  std::uint64_t seed;  // derive_seed(base_seed, index)
};

// One independent scenario. `run` is called exactly once, possibly on a
// worker thread; it must build its own Simulator and use ctx.seed for any
// randomness. Its Record becomes one row of the sweep's CSV/JSON (the
// harness prepends an "id" column).
struct SweepJob {
  std::string id;
  std::function<Record(const JobContext&)> run;
};

struct SweepOptions {
  int threads = 0;  // <= 0: resolve from RRTCP_SWEEP_THREADS / hardware
  std::uint64_t base_seed = 1;
};

struct SweepTiming {
  int threads = 1;
  double wall_seconds = 0.0;  // whole sweep, as observed by the caller
  double job_seconds = 0.0;   // sum of per-job wall clocks (serial cost)
  double speedup() const {
    return wall_seconds > 0.0 ? job_seconds / wall_seconds : 1.0;
  }
};

// Stateless SplitMix64 hash of (base_seed, index). Distinct indices give
// decorrelated seeds even for adjacent base seeds.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t index);

// Applies the resolution chain above; always returns >= 1.
int resolve_threads(int requested);

// Runs all jobs and fills `sink` (which must have size jobs.size()) in job
// order. Blocks until every job has finished. A job that throws
// std::exception submits a Record with an "error" field instead of
// propagating — one bad scenario does not tear down the sweep.
SweepTiming run_sweep(const std::vector<SweepJob>& jobs, ResultSink& sink,
                      const SweepOptions& opts = {});

// Command-line front end shared by the bench binaries:
//   --threads=N       worker threads (default: env/hardware as above)
//   --seed=S          base seed for per-job seed derivation (default 1)
//   --shards=N        engine shards per scenario, 1..kMaxShardCount
//                     (pdes::ShardedScenario; dumbbell-mode and
//                     unpartitionable specs delegate to the single
//                     engine, so 1 — the default — is always safe)
//   --csv=PATH        write the sweep's CSV to PATH
//   --json=PATH       write the sweep's JSON to PATH
//   --list-variants   ask the binary to print the sender registry and exit
//   --quick           ask the binary to run a reduced grid (perf smoke)
// Unknown arguments abort with a usage message on stderr; an out-of-range
// --shards prints the valid range (mirroring how an unknown variant prints
// the registry). Like --list-variants and --quick, --shards is a request
// the harness itself cannot act on (it does not build the specs); binaries
// honor it by stamping ScenarioSpec::shard_count — see bench/.
struct SweepCli {
  SweepOptions options;
  std::string csv_path;
  std::string json_path;
  int shards = 1;
  bool list_variants = false;
  bool quick = false;

  static SweepCli parse(int argc, char** argv);
};

// Prints the per-job wall-clock table and aggregate speedup to stdout and
// writes the CSV/JSON files if the CLI asked for them.
void report(const char* sweep_name, const SweepCli& cli,
            const ResultSink& sink, const SweepTiming& timing);

}  // namespace rrtcp::harness
