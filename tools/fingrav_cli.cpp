/**
 * @file
 * fingrav — command-line front-end to the FinGraV profiler.
 *
 * Usage:
 *   fingrav list
 *       List the built-in paper kernels.
 *   fingrav profile <kernel> [options]
 *       Run a full FinGraV campaign and print the profile.
 *   fingrav compare <kernel-a> <kernel-b> [options]
 *       Profile two kernels and compare rails side by side.
 *   fingrav coschedule <kernel-a> <kernel-b> [options]
 *       Evaluate recommendation-R1 co-scheduling of a pair.
 *   fingrav campaign <kernel> [<kernel>...] [options]
 *       Profile a set of kernels as one campaign set — in
 *       process by default, dispatched to a fleet of worker
 *       subprocesses of this same binary with --fleet N.
 *   fingrav cache stats --cache-dir DIR
 *       Survey an on-disk campaign cache: blob count, bytes, how many
 *       entries revalidate, leftover write-temps.
 *   fingrav --serve
 *       Fleet-worker mode: answer each campaign request on stdin with
 *       one ProfileSet on stdout, stay resident across requests, answer
 *       kPing keepalives, exit on kShutdown or EOF (spawned by --fleet
 *       drivers, which keep the campaign cache; not for humans).
 *
 * Common options: see usage() — one flag table covers every command.
 *
 * Unknown options after a command are rejected with the usage text,
 * a nearest-flag suggestion, and a nonzero exit — trailing junk is
 * never silently ignored.
 *
 * Custom kernels (instead of a paper label; every command and every
 * placement accepts them, see kernels::kernelByLabel):
 *   gemm:M,N,K        e.g. gemm:8192,8192,8192
 *   gemv:M            e.g. gemv:4096
 *   ag:BYTES | ar:BYTES   e.g. ag:1000000000
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analysis/ascii_plot.hpp"
#include "analysis/report.hpp"
#include "analysis/series.hpp"
#include "fingrav/campaign_cache.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/concurrency.hpp"
#include "fingrav/energy.hpp"
#include "fingrav/profiler.hpp"
#include "fingrav/recorded_campaign.hpp"
#include "fingrav/worker_fleet.hpp"
#include "kernels/workloads.hpp"
#include "runtime/host_runtime.hpp"
#include "runtime/serve_worker.hpp"
#include "sim/machine_config.hpp"
#include "sim/simulation.hpp"
#include "support/fault_injector.hpp"
#include "support/logging.hpp"
#include "support/run_journal.hpp"
#include "support/table.hpp"

namespace an = fingrav::analysis;
namespace fc = fingrav::core;
namespace fk = fingrav::kernels;
namespace fs = fingrav::support;
namespace rt = fingrav::runtime;
namespace sim = fingrav::sim;

namespace {

struct CliOptions {
    fc::ProfilerOptions profiler;
    std::uint64_t seed = 1;
    std::string csv;
    bool quiet = false;
    std::size_t fleet = 0;   ///< 0 = no worker fleet dispatch
    bool autotune = false;
    std::string cache_dir;   ///< empty = no campaign cache
    bool no_cache = false;   ///< overrides --cache-dir (aliases/scripts)
    long io_timeout_ms = 0;  ///< worker-pipe inactivity bound (0 = off)
    fs::FaultPlan fault_plan;  ///< scripted faults (empty = none)
};

[[noreturn]] void
usage(const char* argv0)
{
    std::cerr
        << "usage: " << argv0 << " <command> [args] [options]\n"
        << "\n"
        << "commands:\n"
        << "  list                               list built-in kernels\n"
        << "  profile <kernel> [options]         run a FinGraV campaign\n"
        << "  campaign <kernel> [<kernel>...]    profile a kernel set\n"
        << "  compare <kernel-a> <kernel-b>      compare two kernels\n"
        << "  coschedule <kernel-a> <kernel-b>   evaluate R1 co-scheduling\n"
        << "  cache stats --cache-dir DIR        survey an on-disk cache\n"
        << "  --serve                            persistent fleet worker on\n"
        << "                                     stdin/stdout (internal)\n"
        << "\n"
        << "options (one table; per-flag command scope in parentheses):\n"
        << "  --runs N           override the guidance-table run count\n"
        << "  --margin F         override the binning margin (e.g. 0.05)\n"
        << "  --window MS        logger averaging window in ms (default 1,\n"
        << "                     at least the 1e-5 ms timestamp tick)\n"
        << "  --seed N           simulation seed (default 1)\n"
        << "  --sync MODE        fingrav | drift | lang | none\n"
        << "  --no-binning       keep every run (tenet S3 off)\n"
        << "  --csv NAME         dump profiles to fingrav_out/NAME_*.csv\n"
        << "  --quiet            summary only, no plot\n"
        << "  --fleet N          N worker subprocesses with cost-aware\n"
        << "                     pull dispatch, capped at the run's spec\n"
        << "                     count (profile/campaign)\n"
        << "  --autotune         report the autotuned run budget vs\n"
        << "                     Table I (profile)\n"
        << "  --cache-dir DIR    content-addressed campaign cache: reuse\n"
        << "                     stored results bit-identically, store\n"
        << "                     fresh ones (profile/campaign/cache stats)\n"
        << "  --no-cache         ignore --cache-dir for this run\n"
        << "  --io-timeout-ms N  worker-pipe inactivity timeout for\n"
        << "                     --fleet runs, 0 to 2147483647 (0 = wait\n"
        << "                     forever)\n"
        << "  --fault-plan PLAN  scripted fault injection for CI fault\n"
        << "                     matrices: kill:shard=0,frame=1 |\n"
        << "                     corrupt:frame=0 | stall:frame=0,ms=2000 |\n"
        << "                     spawn-fail | store-short (';'-separated;\n"
        << "                     grammar in support/fault_injector.hpp)\n"
        << "\n"
        << "kernels: paper labels (CB-8K-GEMM, MB-4K-GEMV, AG-1GB, ...)\n"
        << "         or gemm:M,N,K | gemv:M | ag:BYTES | ar:BYTES\n";
    std::exit(2);
}

/** Every flag parseOptions understands (nearest-match suggestions). */
constexpr const char* kKnownFlags[] = {
    "--runs",     "--margin",     "--window",        "--seed",
    "--sync",     "--no-binning", "--csv",           "--quiet",
    "--fleet",    "--autotune",   "--cache-dir",     "--no-cache",
    "--io-timeout-ms",            "--fault-plan",
};

/** Levenshtein distance — small strings, so the O(n*m) table is fine. */
std::size_t
editDistance(const std::string& a, const std::string& b)
{
    std::vector<std::size_t> prev(b.size() + 1);
    std::vector<std::size_t> cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t subst =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, subst});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

/** The valid flag closest to a typo, or empty when nothing is close. */
std::string
nearestFlag(const std::string& given)
{
    std::string best;
    std::size_t best_distance = 4;  // farther than 3 edits = no guess
    for (const char* flag : kKnownFlags) {
        const std::size_t d = editDistance(given, flag);
        if (d < best_distance) {
            best_distance = d;
            best = flag;
        }
    }
    return best;
}

/**
 * Parse trailing --flag options into CliOptions.  Anything that is not
 * a recognised option is rejected with the usage text and a nonzero
 * exit — a typo must never be silently ignored.
 */
CliOptions
parseOptions(const std::vector<std::string>& args, std::size_t from,
             const char* argv0)
{
    CliOptions out;
    for (std::size_t i = from; i < args.size(); ++i) {
        const auto& a = args[i];
        auto next = [&]() -> const std::string& {
            if (i + 1 >= args.size())
                fs::fatal(a, " needs a value");
            return args[++i];
        };
        // Malformed numbers get the same usage-text rejection as
        // unknown flags — never std::terminate out of stoull/stod, and
        // never stoull's silent wrap of "-1" or half-parse of "10x".
        auto unsigned_value = [&]() -> std::uint64_t {
            const auto& value = next();
            try {
                if (value.empty() ||
                    value.find_first_not_of("0123456789") !=
                        std::string::npos)
                    throw std::invalid_argument(value);
                return std::stoull(value);
            } catch (const std::exception&) {
                std::cerr << "error: " << a
                          << " needs a non-negative integer, got '"
                          << value << "'\n";
                usage(argv0);
            }
        };
        auto double_value = [&]() -> double {
            const auto& value = next();
            try {
                std::size_t parsed = 0;
                const double out = std::stod(value, &parsed);
                if (parsed != value.size() || !std::isfinite(out))
                    throw std::invalid_argument(value);
                return out;
            } catch (const std::exception&) {
                std::cerr << "error: " << a << " needs a finite number, got '"
                          << value << "'\n";
                usage(argv0);
            }
        };
        if (a == "--runs") {
            out.profiler.runs_override = unsigned_value();
        } else if (a == "--margin") {
            out.profiler.margin_override = double_value();
        } else if (a == "--window") {
            // Duration::millis truncates ms * 1e6 to int64 nanoseconds:
            // the window must come out at least one GPU timestamp tick
            // (PowerLogger's floor) and fit that count.
            const double ms = double_value();
            const double ns = ms * 1e6;
            const auto tick = sim::mi300xConfig().timestamp_tick;
            if (!(ns >= static_cast<double>(tick.nanos()) &&
                  ns < static_cast<double>(
                           std::numeric_limits<std::int64_t>::max()))) {
                std::cerr << "error: --window must be at least "
                          << tick.toMillis() << " ms (the "
                          << tick.nanos() << " ns timestamp tick)"
                             " and fit int64 nanoseconds, got '"
                          << args[i] << "'\n";
                usage(argv0);
            }
            out.profiler.logger_window = fs::Duration::millis(ms);
        } else if (a == "--seed") {
            out.seed = unsigned_value();
        } else if (a == "--sync") {
            const auto& mode = next();
            if (mode == "fingrav")
                out.profiler.sync_mode = fc::SyncMode::kFinGraV;
            else if (mode == "drift")
                out.profiler.sync_mode = fc::SyncMode::kFinGraVDrift;
            else if (mode == "lang")
                out.profiler.sync_mode = fc::SyncMode::kNoDelayAccounting;
            else if (mode == "none")
                out.profiler.sync_mode = fc::SyncMode::kCoarseAlign;
            else
                fs::fatal("unknown sync mode: ", mode);
        } else if (a == "--no-binning") {
            out.profiler.binning = false;
        } else if (a == "--csv") {
            out.csv = next();
        } else if (a == "--quiet") {
            out.quiet = true;
        } else if (a == "--fleet") {
            out.fleet = unsigned_value();
        } else if (a == "--autotune") {
            out.autotune = true;
        } else if (a == "--cache-dir") {
            out.cache_dir = next();
            if (out.cache_dir.empty())
                fs::fatal("--cache-dir needs a non-empty directory");
        } else if (a == "--no-cache") {
            out.no_cache = true;
        } else if (a == "--io-timeout-ms") {
            // poll(2) takes the timeout as an int of milliseconds.
            const std::uint64_t ms = unsigned_value();
            if (ms > static_cast<std::uint64_t>(
                         std::numeric_limits<int>::max())) {
                std::cerr << "error: --io-timeout-ms must be at most "
                          << std::numeric_limits<int>::max() << ", got '"
                          << args[i] << "'\n";
                usage(argv0);
            }
            out.io_timeout_ms = static_cast<long>(ms);
        } else if (a == "--fault-plan") {
            // Parsed eagerly so a malformed plan is rejected before any
            // work runs (FaultPlan::parse is fatal on bad grammar).
            out.fault_plan = fs::FaultPlan::parse(next());
        } else {
            std::cerr << "error: unknown option '" << a << "'";
            const std::string suggestion = nearestFlag(a);
            if (!suggestion.empty())
                std::cerr << " (did you mean '" << suggestion << "'?)";
            std::cerr << "\n";
            usage(argv0);
        }
    }
    return out;
}

/** The campaign cache a run asked for; null = uncached. */
std::shared_ptr<fc::CampaignCache>
makeCache(const CliOptions& opts)
{
    if (opts.cache_dir.empty() || opts.no_cache)
        return nullptr;
    fc::CacheOptions cache_opts;
    cache_opts.dir = opts.cache_dir;
    cache_opts.fault_plan = opts.fault_plan;  // store-short actions
    return std::make_shared<fc::CampaignCache>(std::move(cache_opts));
}

/** One session-stats line: what this run's cache actually did. */
void
reportCacheStats(const fc::CampaignCache& cache)
{
    const auto s = cache.stats();
    std::cout << "cache: " << s.hits() << " hit(s) (" << s.memory_hits
              << " memory, " << s.disk_hits << " disk), " << s.misses
              << " miss(es) (" << s.corrupt_misses << " corrupt), "
              << s.stores << " store(s), " << s.evictions
              << " eviction(s), " << s.disk_bytes_written
              << " B written, " << s.disk_bytes_read << " B read\n";
    if (!cache.journal().empty()) {
        std::cout << "cache journal (" << cache.journal().size()
                  << " degradation(s)):\n"
                  << cache.journal().report();
    }
}

/**
 * A --fleet backend of `workers` --serve subprocesses of this binary.
 * The CLI dispatches once; the backend going out of scope shuts its
 * workers down and reaps them.
 */
std::shared_ptr<fc::FleetBackend>
makeFleetBackend(const CliOptions& opts, std::size_t workers,
                 const char* argv0)
{
    fc::FleetOptions fleet_opts;
    fleet_opts.workers = workers;
    fleet_opts.worker_command = fc::defaultServeCommand(argv0);
    fleet_opts.io_timeout_ms = opts.io_timeout_ms;
    fleet_opts.fault_plan = opts.fault_plan;
    return std::make_shared<fc::FleetBackend>(std::move(fleet_opts));
}

/**
 * Report where the dispatched specs actually executed.  The fallback
 * path keeps results correct when workers die, but a user who asked for
 * --fleet deserves a hard signal whenever the wire path degraded — and
 * so does the CI step exercising this path end to end (a partially
 * broken protocol must not hide behind the in-process recovery).
 */
int
reportFleetDelivery(const fc::FleetBackend& backend)
{
    const auto& stats = backend.lastStats();
    std::cout << "fleet: " << stats.remote_specs
              << " spec(s) over the wire (" << stats.workers_spawned
              << " worker(s) spawned, " << stats.workers_live
              << " resident, " << stats.pulls << " pull(s)), "
              << stats.fallback_specs << " recovered in-process\n";
    // The degradation journal: everything the supervisor absorbed —
    // retries, quarantines, worker deaths, cache corruption — prints
    // even when the run recovered completely, so no degradation is
    // ever silent.
    if (!stats.journal.empty()) {
        std::cout << "run journal (" << stats.journal.size()
                  << " degradation(s), results bit-identical):\n"
                  << stats.journal.report();
    }
    if (stats.fallback_specs > 0) {
        std::cerr << "error: " << stats.fallback_specs << " spec(s) "
                     "failed to execute remotely (" << stats.worker_failures
                  << " worker failure(s)); results above are correct but "
                     "were recovered in-process\n";
        return 1;
    }
    return 0;
}

/** One campaign of `label` under the run's profiler options. */
fc::ScenarioSpec
cliSpec(const std::string& label, std::uint64_t seed, const CliOptions& opts)
{
    fc::ScenarioSpec spec;
    spec.label = label;
    spec.seed = seed;
    spec.opts = opts.profiler;
    return spec;
}

void
printProfile(const fc::ProfileSet& set, const CliOptions& opts,
             const fc::AutotuneResult* autotune = nullptr)
{
    if (autotune != nullptr)
        std::cout << an::summarize(set, *autotune) << "\n";
    else
        std::cout << an::summarize(set) << "\n";
    const auto rep = fc::differentiationError(set);
    std::cout << "SSE " << rep.sse_mean_w << " W | SSP " << rep.ssp_mean_w
              << " W | differentiation error " << rep.error_pct
              << " % | energy/exec " << rep.ssp_energy_j * 1e3 << " mJ\n";
    if (!opts.quiet && !set.ssp.empty()) {
        an::AsciiPlot plot(70, 12);
        plot.addSeries(an::toSeries(set.ssp, fc::Rail::kTotal), 'o',
                       "SSP LOIs");
        plot.addSeries(an::trendSeries(set.ssp, fc::Rail::kTotal), '=',
                       "trend");
        std::cout << plot.render();
    }
    if (!opts.csv.empty()) {
        an::dumpProfileCsv(set.sse, opts.csv + "_sse");
        an::dumpProfileCsv(set.ssp, opts.csv + "_ssp");
        an::dumpProfileCsv(set.timeline, opts.csv + "_timeline");
        std::cout << "CSV written to fingrav_out/" << opts.csv << "_*.csv\n";
    }
}

int
cmdList(const std::vector<std::string>& args, const char* argv0)
{
    if (args.size() > 2) {
        std::cerr << "error: unexpected argument '" << args[2]
                  << "' after 'list'\n";
        usage(argv0);
    }
    const auto cfg = sim::mi300xConfig();
    fs::TableWriter table({"label", "class", "exec@nominal (us)",
                           "op:byte"});
    for (const auto& k : fk::paperKernels(cfg)) {
        std::string cls = "collective";
        if (k->opsPerByte() > 0.0) {
            cls = k->opsPerByte() > cfg.machineOpsPerByte()
                      ? "compute-bound"
                      : "memory-bound";
        }
        table.addRow({k->label(), cls,
                      fs::TableWriter::num(
                          k->nominalDuration().toMicros(), 1),
                      fs::TableWriter::num(k->opsPerByte(), 1)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdProfile(const std::vector<std::string>& args, const char* argv0)
{
    if (args.size() < 3)
        fs::fatal("profile needs a kernel spec");
    const auto opts = parseOptions(args, 3, argv0);
    const auto spec = cliSpec(args[2], opts.seed, opts);

    if (opts.autotune) {
        if (opts.fleet > 0) {
            fs::fatal("--autotune cannot be combined with --fleet: "
                      "autotuning replays a locally recorded run pool");
        }
        const auto recorded = fc::RecordedCampaign::record(spec);
        const auto set = recorded.restitch({});
        const auto autotune = recorded.autotuneBudget();
        printProfile(set, opts, &autotune);
        return 0;
    }
    const auto fleet_backend =
        opts.fleet > 0 ? makeFleetBackend(opts, 1, argv0) : nullptr;
    const auto runner = fleet_backend ? fc::CampaignRunner(fleet_backend)
                                      : fc::CampaignRunner();
    const auto cache = makeCache(opts);
    if (cache)
        runner.attachCache(cache);
    printProfile(runner.run({spec}).front(), opts);
    if (cache)
        reportCacheStats(*cache);
    return fleet_backend ? reportFleetDelivery(*fleet_backend) : 0;
}

int
cmdCampaign(const std::vector<std::string>& args, const char* argv0)
{
    // Kernel labels run up to the first --flag.
    std::vector<std::string> labels;
    std::size_t first_flag = 2;
    while (first_flag < args.size() &&
           args[first_flag].rfind("--", 0) != 0)
        labels.push_back(args[first_flag++]);
    if (labels.empty())
        fs::fatal("campaign needs at least one kernel label");
    const auto opts = parseOptions(args, first_flag, argv0);
    if (opts.autotune) {
        fs::fatal("--autotune applies to 'profile', not 'campaign' "
                  "(autotuning replays one locally recorded run pool)");
    }

    std::vector<fc::ScenarioSpec> specs;
    specs.reserve(labels.size());
    std::uint64_t seed = opts.seed;
    for (const auto& label : labels)
        specs.push_back(cliSpec(label, seed++, opts));

    // A dispatch fills no more seats than it has specs.
    const std::size_t workers = std::min<std::size_t>(opts.fleet, specs.size());
    const auto fleet_backend =
        workers > 0 ? makeFleetBackend(opts, workers, argv0) : nullptr;
    const auto runner = fleet_backend ? fc::CampaignRunner(fleet_backend)
                                      : fc::CampaignRunner();
    const auto cache = makeCache(opts);
    if (cache)
        runner.attachCache(cache);
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = runner.run(specs);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();

    for (const auto& set : results)
        std::cout << an::summarize(set) << "\n";
    std::cout << results.size() << " campaigns via "
              << runner.backend().name() << " backend";
    if (workers > 0)
        std::cout << " (" << workers << " fleet workers)";
    std::cout << " in " << wall_ms << " ms\n";
    if (cache)
        reportCacheStats(*cache);
    if (!opts.csv.empty()) {
        for (const auto& set : results)
            an::dumpProfileCsv(set.ssp, opts.csv + "_" + set.label);
        std::cout << "CSV written to fingrav_out/" << opts.csv
                  << "_*.csv\n";
    }
    return fleet_backend ? reportFleetDelivery(*fleet_backend) : 0;
}

int
cmdCache(const std::vector<std::string>& args, const char* argv0)
{
    if (args.size() < 3 || args[2] != "stats") {
        std::cerr << "error: 'cache' supports one subcommand: "
                     "cache stats --cache-dir DIR\n";
        usage(argv0);
    }
    const auto opts = parseOptions(args, 3, argv0);
    if (opts.cache_dir.empty())
        fs::fatal("cache stats needs --cache-dir DIR");
    // Survey the store as it sits on disk: every blob is revalidated end
    // to end (frame checksum, codec version, key address), the same
    // acceptance test a lookup applies.
    const auto scan = fc::CampaignCache::scanDir(opts.cache_dir);
    std::cout << "cache dir      : " << opts.cache_dir << "\n"
              << "entries        : " << scan.entries << "\n"
              << "valid entries  : " << scan.valid_entries << "\n"
              << "corrupt entries: " << scan.corrupt_entries << "\n"
              << "blob bytes     : " << scan.bytes << "\n"
              << "temp leftovers : " << scan.temp_files << "\n";
    return 0;
}

int
cmdCompare(const std::vector<std::string>& args, const char* argv0)
{
    if (args.size() < 4)
        fs::fatal("compare needs two kernel specs");
    const auto opts = parseOptions(args, 4, argv0);
    if (opts.fleet > 0 || opts.autotune)
        fs::fatal("--fleet/--autotune are not supported by 'compare'");
    const auto sets = fc::CampaignRunner().run(
        {cliSpec(args[2], opts.seed, opts),
         cliSpec(args[3], opts.seed + 1, opts)});

    fs::TableWriter table({"kernel", "exec (us)", "total (W)", "XCD (W)",
                           "IOD (W)", "HBM (W)", "SSE err (%)"});
    for (const auto& set : sets) {
        const auto rep = fc::differentiationError(set);
        table.addRow(
            {set.label,
             fs::TableWriter::num(set.measured_exec_time.toMicros(), 1),
             fs::TableWriter::num(set.ssp.meanPower(fc::Rail::kTotal), 1),
             fs::TableWriter::num(set.ssp.meanPower(fc::Rail::kXcd), 1),
             fs::TableWriter::num(set.ssp.meanPower(fc::Rail::kIod), 1),
             fs::TableWriter::num(set.ssp.meanPower(fc::Rail::kHbm), 1),
             fs::TableWriter::num(rep.error_pct, 1)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdCoschedule(const std::vector<std::string>& args, const char* argv0)
{
    if (args.size() < 4)
        fs::fatal("coschedule needs two kernel specs");
    const auto opts = parseOptions(args, 4, argv0);
    if (opts.fleet > 0 || opts.autotune)
        fs::fatal("--fleet/--autotune are not supported by 'coschedule'");
    const auto cfg = sim::mi300xConfig();
    const auto a = fk::kernelByLabel(args[2], cfg);
    const auto b = fk::kernelByLabel(args[3], cfg);
    sim::Simulation node(cfg, opts.seed, 1);
    rt::HostRuntime host(node, node.forkRng(7));
    fc::ConcurrencyAdvisor advisor(host, node.forkRng(8));
    const auto rep = advisor.evaluate(a, b, 16, 1, 4);

    std::cout << rep.kernel_a << " + " << rep.kernel_b
              << "\ncomplementarity : " << rep.complementarity
              << "\nserial          : " << rep.serial_ms << " ms @ "
              << rep.serial_avg_w << " W avg, " << rep.serial_energy_j
              << " J"
              << "\nconcurrent      : " << rep.concurrent_ms << " ms @ "
              << rep.concurrent_avg_w << " W avg (peak " << rep.peak_w
              << " W), " << rep.concurrent_energy_j << " J"
              << "\nspeedup         : " << rep.speedup << "x"
              << "\nverdict         : "
              << (rep.worthIt(cfg.dvfs.sustained_limit_w)
                      ? "co-schedule (R1 pays off)"
                      : "keep serial")
              << "\n";
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> args(argv, argv + argc);
    if (args.size() < 2)
        usage(argv[0]);
    try {
        const std::string& cmd = args[1];
        if (cmd == "--serve") {
            // The serve loop answers requests until EOF/kShutdown; a
            // --fleet driver keeps the pipe open and the worker resident.
            // stdout carries protocol frames; keep inform() off it so a
            // status line can never corrupt the stream.
            fs::setLogLevel(fs::LogLevel::kWarn);
            // A worker's one option is the fault sub-plan its driver
            // derives per (seat, generation) spawn from the run-level
            // plan; the driver keeps the cache.
            fs::FaultPlan plan;
            if (args.size() == 4 && args[2] == "--fault-plan") {
                plan = fs::FaultPlan::parse(args[3]);
            } else if (args.size() != 2) {
                std::cerr << "error: --serve takes no option but "
                             "--fault-plan PLAN\n";
                usage(argv[0]);
            }
            fs::FaultInjector injector(plan);
            return rt::runServeWorker(std::cin, std::cout,
                                      injector.armed() ? &injector
                                                       : nullptr);
        }
        if (cmd == "list")
            return cmdList(args, argv[0]);
        if (cmd == "profile")
            return cmdProfile(args, argv[0]);
        if (cmd == "campaign")
            return cmdCampaign(args, argv[0]);
        if (cmd == "cache")
            return cmdCache(args, argv[0]);
        if (cmd == "compare")
            return cmdCompare(args, argv[0]);
        if (cmd == "coschedule")
            return cmdCoschedule(args, argv[0]);
        std::cerr << "error: unknown command '" << cmd << "'\n";
        usage(argv[0]);
    } catch (const fs::FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    } catch (const fs::PanicError& e) {
        std::cerr << "internal error (bug): " << e.what() << "\n";
        return 70;
    }
}
