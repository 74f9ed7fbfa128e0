#include "fingrav/stitcher.hpp"

#include <algorithm>

#include "fingrav/binning.hpp"
#include "support/logging.hpp"
#include "support/simd.hpp"

namespace fingrav::core {

namespace {

using fingrav::support::Duration;

/** Representative (SSP) execution time; unset without main executions. */
std::optional<Duration>
repTime(const RunRecord& run, std::size_t ssp)
{
    if (run.main_exec_indices.empty())
        return std::nullopt;
    return run.mainExecDuration(
        std::min(ssp, run.main_exec_indices.size() - 1));
}

/** Timestamp translation under the configured sync mode. */
std::int64_t
translateSample(const ProfilerOptions& opts, const TimeSync& sync,
                Duration tick, const RunRecord& run,
                std::int64_t gpu_timestamp)
{
    if (opts.sync_mode == SyncMode::kCoarseAlign) {
        // Naive alignment: pretend the first sample of the run's log
        // landed exactly when the log was started.  The true offset is the
        // distance to the next window-grid boundary — up to a full window,
        // different for every run.  This is the paper's "unsynchronized"
        // comparison (Fig. 5).
        if (run.samples.empty())
            return run.log_start_cpu_ns;
        return run.log_start_cpu_ns +
               (gpu_timestamp - run.samples.gpu_timestamp.front()) *
                   tick.nanos();
    }
    return sync.gpuCounterToCpuNs(gpu_timestamp);
}

/**
 * First main execution x in [from, mains) with start(x) >= t, or mains:
 * a galloping lower bound over the run's execution starts, which never
 * decrease (header precondition).  O(log distance), one probe when x is
 * `from` itself.
 */
std::size_t
firstStartAtOrAfter(const RunRecord& run, std::size_t from, std::int64_t t)
{
    const std::size_t mains = run.main_exec_indices.size();
    const auto start = [&run](std::size_t x) {
        return run.execs[run.main_exec_indices[x]].timing.cpu_start_ns;
    };
    if (from >= mains || start(from) >= t)
        return from;
    // Invariant: start(lo) < t, and hi == mains or start(hi) >= t.
    std::size_t lo = from;
    std::size_t hi = mains;
    for (std::size_t step = 1; lo + step < mains; step *= 2) {
        if (start(lo + step) >= t) {
            hi = lo + step;
            break;
        }
        lo += step;
    }
    while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (start(mid) < t)
            lo = mid;
        else
            hi = mid;
    }
    return hi;
}

/**
 * Step-6 binning input: run `i`'s representative time, appended with its
 * index.  Runs that recorded zero main executions cannot provide one
 * (indexing size-1 underflowed before); they are excluded from binning
 * and count as outliers.
 */
void
addBinningInput(const std::optional<Duration>& rep, std::size_t run_index,
                std::size_t i, std::vector<Duration>& rep_times,
                std::vector<std::size_t>& eligible)
{
    if (!rep.has_value()) {
        support::warn("stitch: run ", run_index,
                      " recorded no main executions; skipping");
        return;
    }
    rep_times.push_back(*rep);
    eligible.push_back(i);
}

/** Step-6 golden selection over `n` runs (see header). */
void
selectGolden(const ProfilerOptions& opts,
             const std::vector<Duration>& rep_times,
             const std::vector<std::size_t>& eligible, std::size_t n,
             ProfileSet& out)
{
    const double margin =
        opts.margin_override.value_or(out.guidance.binning_margin);
    if (opts.target_bin.has_value()) {
        // Section VI outlier profiling: focus on a chosen execution-time
        // bin rather than the common case.
        out.binning = ExecutionBinner(margin).selectAround(
            rep_times, *opts.target_bin);
        for (auto& g : out.binning.golden_runs)
            g = eligible[g];
    } else if (opts.binning) {
        out.binning = ExecutionBinner(margin).select(rep_times);
        for (auto& g : out.binning.golden_runs)
            g = eligible[g];
    } else {
        out.binning = BinningResult{};
        out.binning.golden_runs = eligible;
        out.binning.bin_center = rep_times.empty()
                                     ? support::Duration()
                                     : rep_times.front();
    }
    out.binning.total_runs = n;
}

}  // namespace

AlignedRun
alignRun(const RunRecord& run, std::size_t window, SyncMode mode,
         const TimeSync& sync, Duration tick, std::size_t sse,
         std::size_t ssp)
{
    const auto& samples = run.windowSamples(window);
    const std::size_t n = samples.size();
    AlignedRun out;
    out.sse_exec_index = sse;
    out.ssp_exec_index = ssp;
    out.rep_time = repTime(run, ssp);
    std::vector<std::int64_t> cpu_ns(n);
    const std::int64_t* ts = samples.gpu_timestamp.data();
    std::int64_t* cpu = cpu_ns.data();
    if (mode == SyncMode::kCoarseAlign) {
        const std::int64_t t0 = n > 0 ? ts[0] : 0;
        const std::int64_t base = run.log_start_cpu_ns;
        const std::int64_t tick_ns = tick.nanos();
        FINGRAV_SIMD_LOOP
        for (std::size_t k = 0; k < n; ++k)
            cpu[k] = base + (ts[k] - t0) * tick_ns;
    } else {
        // Whole-column translation (one call, vectorized element-exact
        // math) instead of one gpuCounterToCpuNs call per sample.
        sync.translateColumn(ts, n, cpu);
    }
    out.run_time_us.resize(n);
    double* rt = out.run_time_us.data();
    FINGRAV_SIMD_LOOP
    for (std::size_t k = 0; k < n; ++k)
        rt[k] = static_cast<double>(cpu[k] - run.run_start_cpu_ns) / 1e3;
    // Sample times ascend and the contention intervals are merged and
    // ascending, so one forward merge resolves every flag ([first,
    // second), as RunRecord::contendedAt).
    out.contended.assign(n, 0);
    const auto& ivs = run.contended_cpu_ns;
    std::size_t ii = 0;
    for (std::size_t k = 0; k < n; ++k) {
        while (ii < ivs.size() && cpu[k] >= ivs[ii].second)
            ++ii;
        out.contended[k] = (ii < ivs.size() && cpu[k] >= ivs[ii].first);
    }

    // Visit only the executions that yield rows: SSE (first, when it
    // precedes the SSP index), then the j >= ssp that can hold a sample,
    // until every sample is behind the cursor (si == n).  Starts never
    // decrease (header precondition) and samples ascend, so the cursor
    // jumped to a visited start lands where a walk over every execution
    // would.
    const std::size_t mains = run.main_exec_indices.size();
    std::size_t si = 0;
    for (std::size_t j = std::min(sse, ssp); j < mains && si < n;
         j = std::max(j + 1, ssp)) {
        // Skip every execution whose successor starts before cpu[si]: it
        // ends before that sample, and every sample before si precedes
        // the last scanned start, so it holds none.  A walk would not
        // move the cursor across it either (scanGe stops at si).
        if (j >= ssp)
            j = firstStartAtOrAfter(run, j + 1, cpu[si]) - 1;
        const auto& timing = run.execs[run.main_exec_indices[j]].timing;
        const double dur_ns = static_cast<double>(
            timing.cpu_end_ns - timing.cpu_start_ns);
        if (dur_ns <= 0.0)
            continue;
        // Boundary scans through the SIMD shim's 4-wide branchless
        // advance (scalar fallback under FINGRAV_SIMD_SCALAR): same
        // indices as the former advance-while-less loops, `cpu` ascends.
        si = support::simd::scanGe(cpu, si, n, timing.cpu_start_ns);
        const std::size_t ke =
            support::simd::scanGt(cpu, si, n, timing.cpu_end_ns);
        for (std::size_t k = si; k < ke; ++k) {
            const double toi_ns =
                static_cast<double>(cpu[k] - timing.cpu_start_ns);
            const StitchRow row{k, j, toi_ns / 1e3, toi_ns / dur_ns};
            if (j == sse)
                out.sse.push_back(row);
            if (j >= ssp)
                out.ssp.push_back(row);
        }
    }
    return out;
}

ProfileStitcher::ProfileStitcher(const ProfilerOptions& opts,
                                 const TimeSync& sync,
                                 support::Duration tick, std::size_t window)
    : opts_(opts), sync_(&sync), tick_(tick), window_(window)
{
}

ProfileStitcher::ProfileStitcher(const ProfilerOptions& opts,
                                 const std::vector<AlignedRun>& aligned,
                                 std::size_t window)
    : opts_(opts), window_(window), table_(&aligned)
{
}

void
ProfileStitcher::selectGoldenRuns(const ProfilerOptions& opts,
                                  const std::vector<RunRecord>& runs,
                                  ProfileSet& out)
{
    std::vector<Duration> rep_times;
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        addBinningInput(repTime(runs[i], out.ssp_exec_index),
                        runs[i].run_index, i, rep_times, eligible);
    }
    selectGolden(opts, rep_times, eligible, runs.size(), out);
}

void
ProfileStitcher::updateCaches(const std::vector<RunRecord>& runs,
                              std::size_t n, const ProfileSet& out)
{
    FINGRAV_ASSERT(n >= seen_, "restitch: runs shrank between calls");
    FINGRAV_ASSERT(n <= runs.size(), "restitch: prefix beyond runs");
    FINGRAV_ASSERT(table_ == nullptr || n <= table_->size(),
                   "restitch: prefix beyond the aligned runs");
    for (std::size_t i = seen_; i < n; ++i) {
        FINGRAV_ASSERT(window_ <= runs[i].extra_samples.size(),
                       "restitch: run ", runs[i].run_index,
                       " recorded no window ", window_);
        if (table_ == nullptr) {
            own_.push_back(alignRun(runs[i], window_, opts_.sync_mode,
                                    *sync_, tick_, out.sse_exec_index,
                                    out.ssp_exec_index));
        }
        addBinningInput(record(i, out).rep_time, runs[i].run_index, i,
                        rep_times_, eligible_);
    }
    seen_ = n;
}

const AlignedRun&
ProfileStitcher::record(std::size_t i, const ProfileSet& out) const
{
    const AlignedRun& rec = table_ != nullptr ? (*table_)[i] : own_[i];
    if (rec.sse_exec_index != out.sse_exec_index ||
        rec.ssp_exec_index != out.ssp_exec_index)
        support::fatal("restitch: run ", i, " was recorded for SSE/SSP "
                       "indices ", rec.sse_exec_index, "/", rec.ssp_exec_index,
                       ", not ", out.sse_exec_index, "/", out.ssp_exec_index);
    return rec;
}

void
ProfileStitcher::appendRun(const RunRecord& run, const AlignedRun& rec,
                           ProfileSet& out) const
{
    // The run's rows, completed column by column from its samples'
    // columns, then every sample as the timeline (bulk column copies, no
    // transpose).
    const auto& samples = run.windowSamples(window_);
    out.sse.appendRows(rec.sse, samples, rec.run_time_us.data(),
                       rec.contended.data(), run.run_index);
    out.ssp.appendRows(rec.ssp, samples, rec.run_time_us.data(),
                       rec.contended.data(), run.run_index);
    out.timeline.appendTimelineRun(samples, rec.run_time_us.data(),
                                   rec.contended.data(), run.run_index);
}

void
ProfileStitcher::restitch(const std::vector<RunRecord>& runs,
                          ProfileSet& out)
{
    restitch(runs, runs.size(), out);
}

void
ProfileStitcher::restitch(const std::vector<RunRecord>& runs, std::size_t n,
                          ProfileSet& out)
{
    updateCaches(runs, n, out);
    selectGolden(opts_, rep_times_, eligible_, n, out);
    const auto& golden = out.binning.golden_runs;

    // Incremental iff every previously stitched run is still golden, in
    // the same order (golden indices ascend, so unchanged membership of
    // old runs puts them in a prefix).  Otherwise the modal bin moved and
    // the profiles are rebuilt from scratch.
    const bool incremental =
        stitched_once_ && golden.size() >= stitched_golden_.size() &&
        std::equal(stitched_golden_.begin(), stitched_golden_.end(),
                   golden.begin());
    if (!incremental) {
        out.sse = PowerProfile(out.label, ProfileKind::kSse);
        out.ssp = PowerProfile(out.label, ProfileKind::kSsp);
        out.timeline = PowerProfile(out.label, ProfileKind::kTimeline);
        ssp_time_us_ = support::RunningStats();
        ++rebuilds_;
        // A rebuild reserves its whole extent from the records' row and
        // sample counts, so its appends never re-allocate; an incremental
        // append lets the columns grow geometrically instead (an exact
        // reserve would copy every column at every top-up step).
        std::size_t sse = 0, ssp = 0, timeline = 0;
        for (const std::size_t idx : golden) {
            const AlignedRun& rec = record(idx, out);
            sse += rec.sse.size();
            ssp += rec.ssp.size();
            timeline += rec.run_time_us.size();
        }
        out.sse.reserve(sse);
        out.ssp.reserve(ssp);
        out.timeline.reserve(timeline);
    }

    const std::size_t from = incremental ? stitched_golden_.size() : 0;
    for (std::size_t g = from; g < golden.size(); ++g) {
        const AlignedRun& rec = record(golden[g], out);
        ssp_time_us_.add(rec.rep_time->toMicros());
        appendRun(runs[golden[g]], rec, out);
    }

    stitched_golden_ = golden;
    stitched_once_ = true;
    out.ssp_exec_time = support::Duration::micros(ssp_time_us_.mean());
}

void
ProfileStitcher::stitchReference(const ProfilerOptions& opts,
                                 const TimeSync& sync,
                                 support::Duration tick,
                                 const std::vector<RunRecord>& runs,
                                 ProfileSet& out)
{
    // ---- step 6: golden-run selection ----------------------------------
    selectGoldenRuns(opts, runs, out);

    // ---- steps 7 + 9: LOI/TOI extraction and stitching ------------------
    // The seed's quadratic loop, kept as the verification oracle and
    // benchmark baseline: every (execution, sample) pair is compared, and
    // every comparison re-translates the sample timestamp.
    out.sse = PowerProfile(out.label, ProfileKind::kSse);
    out.ssp = PowerProfile(out.label, ProfileKind::kSsp);
    out.timeline = PowerProfile(out.label, ProfileKind::kTimeline);

    support::RunningStats ssp_time_us;
    for (const std::size_t run_idx : out.binning.golden_runs) {
        const RunRecord& run = runs[run_idx];
        ssp_time_us.add(repTime(run, out.ssp_exec_index)->toMicros());

        for (std::size_t j = 0; j < run.main_exec_indices.size(); ++j) {
            const auto& timing =
                run.execs[run.main_exec_indices[j]].timing;
            const double dur_ns = static_cast<double>(
                timing.cpu_end_ns - timing.cpu_start_ns);
            if (dur_ns <= 0.0)
                continue;
            for (const auto& s : run.samples) {
                const auto cpu =
                    translateSample(opts, sync, tick, run, s.gpu_timestamp);
                if (cpu < timing.cpu_start_ns || cpu > timing.cpu_end_ns)
                    continue;
                ProfilePoint p;
                p.toi_us = static_cast<double>(cpu - timing.cpu_start_ns) /
                           1e3;
                p.toi_frac =
                    static_cast<double>(cpu - timing.cpu_start_ns) / dur_ns;
                p.run_time_us =
                    static_cast<double>(cpu - run.run_start_cpu_ns) / 1e3;
                p.sample = s;
                p.run_index = run.run_index;
                p.exec_index = j;
                p.contended = run.contendedAt(cpu);
                if (j == out.sse_exec_index)
                    out.sse.add(p);
                if (j >= out.ssp_exec_index)
                    out.ssp.add(p);
            }
        }

        for (const auto& s : run.samples) {
            const auto cpu =
                translateSample(opts, sync, tick, run, s.gpu_timestamp);
            ProfilePoint p;
            p.run_time_us =
                static_cast<double>(cpu - run.run_start_cpu_ns) / 1e3;
            p.sample = s;
            p.run_index = run.run_index;
            p.contended = run.contendedAt(cpu);
            out.timeline.add(p);
        }
    }
    out.ssp_exec_time = support::Duration::micros(ssp_time_us.mean());
}

}  // namespace fingrav::core
