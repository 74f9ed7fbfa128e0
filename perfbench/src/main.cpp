/**
 * @file
 * The FinGraV end-to-end benchmark driver.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--state-dir DIR]
 *
 * One process runs one workload as a closed loop with one caller: set-up
 * several times (the median is setup_s), then whole measured passes until
 * S seconds have elapsed.  Every operation's output is checked; the work
 * counters of every pass must repeat exactly, and so must those of an
 * earlier run of the same code and seed (recorded under --state-dir).
 *
 * --trace 0 prints the end-to-end metrics.  --trace 1 alternates traced
 * and untraced passes, prints the per-layer self-time table (with its
 * "unattributed" row and conservation check) and the per-layer metrics,
 * and writes the spans as Chrome trace events under --state-dir.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Exit status: 0 when every check passed, 1 on any failed check, 2 on
 * bad usage.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench.hpp"

namespace pb = perfbench;

namespace {

struct MetricDef {
    const char* name;
    const char* unit;
};

// Keep both lists in step with BENCHMARK.json (tools/spread.py checks
// the keys).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},     {"peak_rss_mb", "MB"}, {"ops_per_s", "1/s"},
    {"op_ms_p50", "ms"},  {"op_ms_p90", "ms"},
};

constexpr MetricDef kLayerMetrics[] = {
    {"sim.stretches", "count"},
    {"sim.sim_s", "s"},
    {"sim.sim_s_per_host_s", "s/s"},
    {"sim.host_ns_per_stretch", "ns"},
    {"sim.compute.host_ns_per_stretch", "ns"},
    {"sim.collective.host_ns_per_stretch", "ns"},
    {"sim.collective.sibling_stretch_share", "ratio"},
    {"runtime.node_build_ms", "ms"},
    {"profiler.profile_ms", "ms"},
    {"profiler.runs", "count"},
    {"profiler.execs_per_run", "count"},
    {"profiler.lois", "count"},
    {"profiler.loi_yield", "ratio"},
    {"binning.golden_share", "ratio"},
    {"recorded.record_ms", "ms"},
    {"recorded.rss_mb_per_recording", "MB"},
    {"recorded.autotune_ms", "ms"},
    {"stitcher.restitch_ms.window", "ms"},
    {"stitcher.restitch_ms.sync_mode", "ms"},
    {"stitcher.restitch_ms.margin", "ms"},
    {"stitcher.restitch_ms.binning_off", "ms"},
    {"stitcher.restitch_ms.runs_prefix", "ms"},
    {"stitcher.lois_per_point", "count"},
    {"stitcher.ns_per_loi", "ns"},
    {"analysis.rail_stats_us", "us"},
    {"analysis.percentile_us", "us"},
    {"analysis.summarize_us", "us"},
    {"analysis.contention_report_us", "us"},
    {"codec.key_us", "us"},
    {"codec.encode_mb_per_s", "MB/s"},
    {"codec.decode_mb_per_s", "MB/s"},
    {"cache.memory_lookup_us", "us"},
    {"cache.disk_lookup_us", "us"},
    {"cache.store_us", "us"},
    {"cache.memory_hits", "count"},
    {"cache.disk_hits", "count"},
    {"cache.misses", "count"},
    {"cache.corrupt_misses", "count"},
    {"cache.evictions", "count"},
    {"cache.stores", "count"},
    {"cache.store_failures", "count"},
    {"cache.disk_bytes_read", "bytes"},
    {"cache.disk_bytes_written", "bytes"},
    {"cache.hit_ratio", "ratio"},
    {"fleet.spawn_ms", "ms"},
    {"fleet.workers_spawned_warm", "count"},
    {"fleet.remote_specs", "count"},
    {"fleet.fallback_specs", "count"},
    {"fleet.pulls", "count"},
    {"fleet.retried_specs", "count"},
    {"fleet.journal_events", "count"},
    {"fleet.wire_bytes_per_dispatch", "bytes"},
    {"fleet.overhead_ms", "ms"},
    {"cost_model.predict_us", "us"},
    {"cost_model.rank_agreement", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_share", "ratio"},
    {"trace.op_samples", "count"},
};

/** Set-ups per run; setup_s is their median. */
constexpr std::size_t kSetupReps = 3;

/** A layer below this share of its workload needs an explicit reason
 *  before anyone optimizes it (ROADMAP). */
constexpr double kSmallLayerShare = 0.05;

[[noreturn]] void
usage(const std::string& error)
{
    std::cerr << "perfbench: " << error << "\n"
              << "usage: perfbench --workload "
                 "paper_campaigns|restitch_sweep|cache_traffic --seed N"
                 " --seconds S --trace 0|1 [--state-dir DIR]\n";
    std::exit(2);
}

pb::Options
parseArgs(int argc, char** argv)
{
    pb::Options opts;
    opts.self_path = argv[0];
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value after " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                opts.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                opts.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                opts.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                opts.trace = value == "1";
            } else if (arg == "--state-dir") {
                opts.state_dir = value;
            } else {
                usage("unknown flag " + arg);
            }
        } catch (const std::logic_error&) {
            usage("bad value '" + value + "' for " + arg);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(opts.seconds > 0.0))
        usage("--seconds must be positive");
    return opts;
}

std::unique_ptr<pb::Workload>
makeWorkload(const std::string& name)
{
    if (name == "paper_campaigns")
        return pb::makePaperCampaigns();
    if (name == "restitch_sweep")
        return pb::makeRestitchSweep();
    if (name == "cache_traffic")
        return pb::makeCacheTraffic();
    usage("unknown workload '" + name + "'");
}

/** A JSON number with all its digits (non-finite values print as 0). */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
countersText(const pb::Counters& counters)
{
    std::ostringstream oss;
    for (const auto& [name, value] : counters)
        oss << name << "=" << num(value) << "\n";
    return oss.str();
}

// ---------------------------------------------------------------------------
// Per-layer self-time table
// ---------------------------------------------------------------------------

struct LayerRow {
    std::int64_t self_ns = 0;
    std::size_t calls = 0;
};

/**
 * Self time per span name over the pass roots.  A span's self time is its
 * duration minus its children's; the roots' self time is the
 * "unattributed" row.  Conservation: children lie inside their parent and
 * never overlap, so no self time is negative and the rows sum exactly to
 * the roots' total.
 */
std::map<std::string, LayerRow>
layerTable(const pb::Tracer& tracer, pb::Checker& check,
           std::int64_t& total_ns)
{
    const auto& spans = tracer.spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    std::vector<std::int64_t> last_child_end(spans.size(), 0);
    std::vector<bool> in_pass(spans.size(), false);
    std::size_t violations = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& s = spans[i];
        if (s.parent < 0) {
            in_pass[i] = std::string_view(s.name) == pb::kPassSpan;
            continue;
        }
        const auto p = static_cast<std::size_t>(s.parent);
        in_pass[i] = in_pass[p];
        const auto& parent = spans[p];
        if (s.start_ns < parent.start_ns || s.end_ns > parent.end_ns ||
            s.start_ns < last_child_end[p] || s.end_ns < s.start_ns)
            ++violations;
        last_child_end[p] = s.end_ns;
        child_ns[p] += s.end_ns - s.start_ns;
    }
    std::map<std::string, LayerRow> rows;
    total_ns = 0;
    std::int64_t row_sum = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (!in_pass[i])
            continue;
        const auto& s = spans[i];
        const std::int64_t self = s.end_ns - s.start_ns - child_ns[i];
        if (self < 0)
            ++violations;
        auto& row = rows[s.parent < 0 ? "unattributed" : s.name];
        row.self_ns += self;
        ++row.calls;
        row_sum += self;
        if (s.parent < 0)
            total_ns += s.end_ns - s.start_ns;
    }
    check.expect(violations == 0,
                 "span conservation: " + std::to_string(violations) +
                     " child span(s) outside or overlapping their parent");
    check.expect(row_sum == total_ns,
                 "span conservation: layer rows do not sum to the pass "
                 "spans");
    return rows;
}

void
printLayerTable(const std::map<std::string, LayerRow>& rows,
                std::int64_t total_ns)
{
    std::vector<std::pair<std::string, LayerRow>> sorted(rows.begin(),
                                                         rows.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
        return a.second.self_ns > b.second.self_ns;
    });
    std::cout << "per-layer self time over traced passes ("
              << num(static_cast<double>(total_ns) / 1e6) << " ms total):\n"
              << "  " << std::left << std::setw(40) << "layer"
              << std::right << std::setw(12) << "self ms" << std::setw(9)
              << "share" << std::setw(9) << "calls" << "\n";
    for (const auto& [name, row] : sorted) {
        const double share = total_ns > 0 ? static_cast<double>(row.self_ns) /
                                                static_cast<double>(total_ns)
                                          : 0.0;
        std::cout << "  " << std::left << std::setw(40) << name << std::right
                  << std::setw(12) << std::fixed << std::setprecision(3)
                  << static_cast<double>(row.self_ns) / 1e6 << std::setw(8)
                  << std::setprecision(2) << share * 100.0 << "%"
                  << std::setw(9) << row.calls
                  << (share < kSmallLayerShare ? "  [<5%]" : "") << "\n";
        std::cout.unsetf(std::ios::fixed);
        std::cout << std::setprecision(6);
    }
    std::cout << "  (conservation: rows sum to the pass spans; [<5%] marks "
                 "layers under 5 % of the workload)\n";
}

void
writeChromeTrace(const pb::Tracer& tracer, const std::string& path)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "perfbench: cannot write trace " << path << "\n";
        return;
    }
    const auto& spans = tracer.spans();
    const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& s = spans[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << num(static_cast<double>(s.start_ns - origin) / 1e3)
            << ",\"dur\":" << num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << "}}";
    }
    out << "\n]}\n";
}

/** Compare this run's counters with an earlier run of the same code and
 *  seed (recorded under the state directory), or record them. */
void
checkCountersAcrossRuns(const pb::Options& opts, const std::string& text,
                        pb::Checker& check)
{
    namespace fs = std::filesystem;
    const fs::path path = fs::path(opts.state_dir) /
                          ("counters-" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".txt");
    std::ifstream in(path);
    if (in) {
        std::stringstream earlier;
        earlier << in.rdbuf();
        check.expect(earlier.str() == text,
                     "work counters differ from an earlier run of this code "
                     "and seed (" + path.string() + ")");
        return;
    }
    const fs::path temp = path.string() + ".tmp" + std::to_string(::getpid());
    {
        std::ofstream out(temp);
        out << text;
    }
    std::error_code ec;
    fs::rename(temp, path, ec);
}

int
run(const pb::Options& opts)
{
    auto workload = makeWorkload(opts.workload);
    pb::Context ctx(opts);
    std::error_code ec;
    std::filesystem::create_directories(opts.state_dir, ec);

    std::cout << "perfbench " << opts.workload << " seed=" << opts.seed
              << " seconds=" << opts.seconds << " trace=" << opts.trace
              << " | nproc=" << std::thread::hardware_concurrency()
              << " build=" << PERFBENCH_BUILD_TYPE
              << " compiler=" << PERFBENCH_COMPILER << "\n";

    std::size_t attempted = 0;
    std::size_t failed = 0;
    const auto countOutside = [&](std::size_t before) {
        const std::size_t n = ctx.check.failures() - before;
        attempted += 1;
        failed += n > 0 ? 1 : 0;
    };

    // Set-up, several times: setup_s is the median, and every set-up's
    // outputs and work counts must match the first one's.
    std::vector<double> setup_s;
    pb::Counters setup_counters;
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
        const std::size_t before = ctx.check.failures();
        pb::Counters counters;
        const auto t0 = pb::nowNs();
        workload->setup(ctx, rep, counters);
        setup_s.push_back(pb::msSince(t0) / 1e3);
        if (rep == 0)
            setup_counters = counters;
        else
            ctx.check.expect(counters == setup_counters,
                             "set-up work counters differ between set-ups");
        countOutside(before);
    }

    // Measured passes: whole passes until the time is up.  Every pass runs
    // the same operations in the same order, and each operation's time is
    // its best (lowest) over the run's passes: other tenants of a shared
    // host slow a core down by up to half for seconds at a time, and only
    // ever slow an operation down.  A traced run alternates
    // untraced and traced passes; the untraced ones give the end-to-end
    // figures and the difference gives the tracing overhead.
    std::vector<std::vector<double>> untraced_ms, traced_ms;  // [pass][op]
    std::size_t passes = 0;
    pb::Counters pass_counters;
    const std::size_t min_passes = opts.trace ? 6 : 3;
    const auto start = pb::nowNs();
    while (passes < min_passes ||
           pb::msSince(start) < opts.seconds * 1e3) {
        const bool traced = opts.trace && passes % 2 == 1;
        ctx.tracer.setEnabled(traced);
        const std::size_t before = ctx.check.failures();
        pb::PassResult result;
        {
            pb::Scope root(ctx.tracer, pb::kPassSpan, passes);
            workload->pass(ctx, result);
        }
        ctx.tracer.setEnabled(false);

        if (passes == 0)
            pass_counters = result.counters;
        else
            ctx.check.expect(result.counters == pass_counters,
                             "pass " + std::to_string(passes) +
                                 " work counters differ from pass 0");
        const std::size_t ops = result.op_ms.size();
        const std::size_t pass_failures = ctx.check.failures() - before;
        attempted += ops;
        failed += std::min(ops, pass_failures);
        if (ops == 0 && pass_failures > 0) {
            attempted += 1;
            failed += 1;
        }
        auto& runs = traced ? traced_ms : untraced_ms;
        ctx.check.expect(runs.empty() ||
                             runs.front().size() == result.op_ms.size(),
                         "passes ran different operation counts");
        runs.push_back(std::move(result.op_ms));
        ++passes;
    }

    pb::LayerValues layers;
    if (opts.trace) {
        ctx.tracer.setEnabled(true);
        const std::size_t before = ctx.check.failures();
        workload->layers(ctx, layers);
        ctx.tracer.setEnabled(false);
        countOutside(before);
    }
    {
        const std::size_t before = ctx.check.failures();
        workload->finish(ctx);
        countOutside(before);
    }

    // Work counters: printed with every run and compared with an earlier
    // run of the same code and seed.
    const std::string counters_text = "[setup]\n" +
                                      countersText(setup_counters) +
                                      "[pass]\n" + countersText(pass_counters);
    {
        const std::size_t before = ctx.check.failures();
        checkCountersAcrossRuns(opts, counters_text, ctx.check);
        countOutside(before);
    }
    std::cout << "work counters (per set-up and per pass; identical on "
                 "every run of this code and seed):\n";
    for (const auto& [name, value] : setup_counters)
        std::cout << "  setup." << name << " = " << num(value) << "\n";
    for (const auto& [name, value] : pass_counters)
        std::cout << "  pass." << name << " = " << num(value) << "\n";

    // Per-operation best times over the passes.
    const auto opBest = [](const std::vector<std::vector<double>>& runs) {
        std::vector<double> best;
        if (!runs.empty())
            best = runs.front();
        for (const auto& run : runs) {
            for (std::size_t i = 0; i < best.size() && i < run.size(); ++i)
                best[i] = std::min(best[i], run[i]);
        }
        return best;
    };
    const auto sum = [](const std::vector<double>& xs) {
        double total = 0.0;
        for (const double x : xs)
            total += x;
        return total;
    };
    const std::vector<double> op_ms = opBest(untraced_ms);
    {
        // Every untraced pass's operation times, one line per operation
        // in pass order, for offline comparison.
        std::ofstream out(std::filesystem::path(opts.state_dir) /
                          ("ops-" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".txt"));
        for (std::size_t i = 0; i < op_ms.size(); ++i) {
            for (std::size_t p = 0; p < untraced_ms.size(); ++p)
                out << (p ? " " : "") << num(untraced_ms[p][i]);
            out << "\n";
        }
    }
    const double op_total_ms = sum(op_ms);
    const double ops_per_s =
        op_total_ms > 0.0 ? static_cast<double>(op_ms.size()) /
                                (op_total_ms / 1e3)
                          : 0.0;
    const double p50 = pb::percentile(op_ms, 50.0);
    const double p90 = pb::percentile(op_ms, 90.0);
    std::map<std::string, double> e2e = {
        {"setup_s", pb::median(setup_s)},
        {"peak_rss_mb", pb::peakRssMb()},
        {"ops_per_s", ops_per_s},
        {"op_ms_p50", p50},
        {"op_ms_p90", p90},
    };

    std::cout << "set-up: " << setup_s.size() << " runs, median "
              << num(e2e["setup_s"]) << " s (";
    for (std::size_t i = 0; i < setup_s.size(); ++i)
        std::cout << (i ? " " : "") << num(setup_s[i]);
    std::cout << ")\n"
              << "passes: " << passes << " (" << untraced_ms.size()
              << " untraced, " << traced_ms.size() << " traced), "
              << op_ms.size() << " " << workload->opName()
              << " operations each\n"
              << "op_ms_p50 = " << num(p50) << " ms, op_ms_p90 = " << num(p90)
              << " ms (n=" << op_ms.size() << " operations, "
              << op_ms.size() / 10 << " beyond p90; each the best of "
              << untraced_ms.size() << " untraced passes)\n"
              << "ops_per_s = " << num(ops_per_s) << ", peak_rss_mb = "
              << num(e2e["peak_rss_mb"]) << "\n"
              << "error_rate = "
              << num(attempted ? static_cast<double>(failed) / attempted : 0.0)
              << " (" << failed << " failed of " << attempted
              << " attempted)\n";

    std::ostringstream metrics;
    if (opts.trace) {
        const double traced_total_ms = sum(opBest(traced_ms));
        layers["trace.overhead_pct"] =
            op_total_ms > 0.0
                ? (traced_total_ms - op_total_ms) / op_total_ms * 100.0
                : 0.0;
        layers["trace.op_samples"] = static_cast<double>(op_ms.size());
        std::int64_t total_ns = 0;
        const auto rows = layerTable(ctx.tracer, ctx.check, total_ns);
        const auto unattributed = rows.find("unattributed");
        layers["trace.unattributed_share"] =
            total_ns > 0 && unattributed != rows.end()
                ? static_cast<double>(unattributed->second.self_ns) /
                      static_cast<double>(total_ns)
                : 0.0;
        printLayerTable(rows, total_ns);
        std::cout << "tracing overhead: "
                  << num(layers["trace.overhead_pct"])
                  << " % (traced minus untraced best operation times)\n";

        namespace fs = std::filesystem;
        const std::string trace_path =
            (fs::path(opts.state_dir) /
             ("trace-" + opts.workload + "-seed" + std::to_string(opts.seed) +
              ".json"))
                .string();
        writeChromeTrace(ctx.tracer, trace_path);
        std::cout << "spans: " << ctx.tracer.spans().size() << " written to "
                  << trace_path << "\n";

        for (const auto& [name, value] : layers) {
            const bool known = std::any_of(
                std::begin(kLayerMetrics), std::end(kLayerMetrics),
                [&](const MetricDef& d) { return name == d.name; });
            ctx.check.expect(known, "unlisted per-layer metric " + name);
        }
        std::cout << "per-layer metrics (0 = layer not exercised by this "
                     "workload):\n";
        bool first = true;
        for (const auto& def : kLayerMetrics) {
            const double value = layers.count(def.name) ? layers[def.name] : 0.0;
            std::cout << "  " << def.name << " = " << num(value) << " "
                      << def.unit << "\n";
            metrics << (first ? "" : ", ") << "\"" << def.name
                    << "\": {\"value\": " << num(value) << ", \"unit\": \""
                    << def.unit << "\"}";
            first = false;
        }
    } else {
        bool first = true;
        for (const auto& def : kEndToEnd) {
            metrics << (first ? "" : ", ") << "\"" << def.name
                    << "\": {\"value\": " << num(e2e[def.name])
                    << ", \"unit\": \"" << def.unit << "\"}";
            first = false;
        }
    }

    // A failure found only after the counting above (conservation, metric
    // names) counts as one more failed operation.
    const bool correct = ctx.check.failures() == 0;
    if (!correct && failed == 0) {
        attempted += 1;
        failed += 1;
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": "
              << failed << ", \"metrics\": {" << metrics.str() << "}}"
              << std::endl;
    return correct ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    const auto opts = parseArgs(argc, argv);
    try {
        return run(opts);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << opts.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }
}
