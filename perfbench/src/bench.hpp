#ifndef PERFBENCH_BENCH_HPP_
#define PERFBENCH_BENCH_HPP_

/**
 * @file
 * The benchmark's own framework: options, span recording, output checks,
 * deterministic counters, and the Workload interface every workload
 * implements.
 *
 * Everything here lives outside the library.  Spans are recorded around
 * calls into the library's public functions, and work is counted from its
 * public counters, so the library itself is measured from the outside.
 * One workload runs in one process as a closed loop with one caller.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fingrav/campaign_runner.hpp"
#include "fingrav/profiler.hpp"
#include "fingrav/scenario.hpp"

namespace perfbench {

namespace core = fingrav::core;
namespace sim = fingrav::sim;

using Clock = std::chrono::steady_clock;

/** Monotonic host time, ns. */
std::int64_t nowNs();

/** Host milliseconds since `t0_ns`. */
double msSince(std::int64_t t0_ns);

/** Command-line options a workload sees. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for traces, counter records and scratch stores. */
    std::string state_dir = ".";
    /** The driver's own path; the fleet's CLI workers sit next to it. */
    std::string self_path;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/** One recorded span: name, host interval, parent, campaign/request id. */
struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index into the span list; -1 = root
    std::uint64_t id = 0;
};

/**
 * In-memory span recorder for the single calling thread.  Disabled, open()
 * costs one branch and records nothing.
 */
class Tracer {
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int open(const char* name, std::uint64_t id);

    /** Close a span opened by open() (no-op for -1). */
    void close(int index);

    const std::vector<Span>& spans() const { return spans_; }

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/** RAII span. */
class Scope {
  public:
    Scope(Tracer& tracer, const char* name, std::uint64_t id = 0)
        : tracer_(tracer), index_(tracer.open(name, id))
    {
    }
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer& tracer_;
    int index_;
};

/** Name of the root span of every measured pass. */
inline constexpr const char* kPassSpan = "workload.pass";
/** Name of the root span of the traced run's per-layer probes. */
inline constexpr const char* kProbeSpan = "workload.probe";
/** Span around the benchmark's own output checks. */
inline constexpr const char* kCheckSpan = "perfbench.check";

/** Inclusive time and call count of every span with `name`. */
struct SpanTotal {
    double total_ms = 0.0;
    std::size_t calls = 0;

    double perCallMs() const { return calls > 0 ? total_ms / calls : 0.0; }
};
SpanTotal spanTotal(const Tracer& tracer, const char* name);

// ---------------------------------------------------------------------------
// Checks and counters
// ---------------------------------------------------------------------------

/** Output checks; every failure is counted and the first few printed. */
class Checker {
  public:
    /** Record one check of an operation; false when it failed. */
    bool expect(bool ok, const std::string& what);

    std::size_t failures() const { return failures_; }

  private:
    std::size_t failures_ = 0;
};

/** Deterministic work counts (must repeat exactly for a code + seed). */
using Counters = std::map<std::string, double>;

/** Everything one measured pass produced. */
struct PassResult {
    /** Host latency of every operation of the pass, in a fixed order, ms. */
    std::vector<double> op_ms;
    /** Work counts of the pass (identical on every pass). */
    Counters counters;
};

/** Shared state of one benchmark run. */
struct Context {
    explicit Context(Options o) : opts(std::move(o)) {}

    Options opts;
    Tracer tracer;
    Checker check;
    sim::MachineConfig cfg = sim::mi300xConfig();
    std::uint64_t next_id = 1;

    std::uint64_t newId() { return next_id++; }
};

/** Spans an output check; checks stay outside every operation's time. */
class CheckScope : public Scope {
  public:
    explicit CheckScope(Context& ctx, std::uint64_t id = 0)
        : Scope(ctx.tracer, kCheckSpan, id)
    {
    }
};

/** Per-layer metric values by name (see kLayerMetrics in main.cpp). */
using LayerValues = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/** One benchmark workload: repeated set-up, measured passes, probes. */
class Workload {
  public:
    virtual ~Workload() = default;

    /** What one operation is (printed next to the latency figures). */
    virtual const char* opName() const = 0;

    /**
     * Build the state the passes run on.  Called several times; each call
     * replaces the previous state, and its outputs are checked against
     * the first call's (`rep` counts the calls from 0).  Work counts of a
     * set-up go to `counters`.
     */
    virtual void setup(Context& ctx, std::size_t rep, Counters& counters) = 0;

    /** One measured pass of the closed loop. */
    virtual void pass(Context& ctx, PassResult& result) = 0;

    /**
     * Traced run only, after the passes: per-layer metrics from the
     * recorded spans, the public counters and per-layer probes.
     */
    virtual void layers(Context& ctx, LayerValues& out) = 0;

    /** Release resources (scratch stores). */
    virtual void finish(Context&) {}
};

std::unique_ptr<Workload> makePaperCampaigns();
std::unique_ptr<Workload> makeRestitchSweep();
std::unique_ptr<Workload> makeCacheTraffic();

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/**
 * The order in which a run performs `n` operations: a permutation of
 * 0..n-1 drawn from the run seed.  Specs keep fixed seeds, so every run
 * seed does the same work (a campaign's cost moves by up to a third with
 * its spec seed), and the run seed decides the order of the work.
 */
std::vector<std::size_t> seededOrder(std::size_t n, std::uint64_t run_seed);

/** FNV-1a digest of a ProfileSet's canonical codec bytes. */
std::uint64_t digest(const core::ProfileSet& set);

/** Median of a sample (0 when empty). */
double median(std::vector<double> xs);

/** Linear-interpolated percentile, p in [0, 100] (0 when empty). */
double percentile(std::vector<double> xs, double p);

/** Resident set size now, MB (from /proc/self/statm). */
double currentRssMb();

/** Peak resident set size of this process, MB. */
double peakRssMb();

/**
 * The per-layer metrics every workload derives from its own result sets
 * (profiler/binning counts) and from probes of the codec, the analysis
 * functions and the cost model on its own specs and sets.
 */
void resultSetLayers(const std::vector<core::ProfileSet>& sets,
                     LayerValues& out);
void probeCommonLayers(Context& ctx,
                       const std::vector<core::ScenarioSpec>& specs,
                       const std::vector<core::ProfileSet>& sets,
                       LayerValues& out);

/**
 * The fleet.* and cost_model.rank_agreement metrics: dispatch `specs`
 * through a resident two-worker fleet and check every result against
 * `references`; `inproc_ms` is each spec's in-process cost.
 */
void probeFleet(Context& ctx, const std::vector<core::ScenarioSpec>& specs,
                const std::vector<core::ProfileSet>& references,
                const std::vector<double>& inproc_ms, LayerValues& out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HPP_
