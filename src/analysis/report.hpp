#ifndef FINGRAV_ANALYSIS_REPORT_HPP_
#define FINGRAV_ANALYSIS_REPORT_HPP_

/**
 * @file
 * Shared experiment scaffolding for the bench binaries.
 *
 * Every bench regenerates one paper table or figure: it builds a fresh
 * simulated node per campaign (deterministic given the seed), runs the
 * profiler, prints the paper-style rows/series, and dumps CSVs for
 * external replotting under ./fingrav_out/.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "fingrav/profiler.hpp"
#include "fingrav/recorded_campaign.hpp"
#include "fingrav/scenario.hpp"

namespace fingrav::analysis {

/**
 * The nine-kernel Fig. 10 campaign set (bench_fig10's labels and seed
 * base 10001) at the given run budget (no step-8 top-up), optionally
 * plus one AR-512MB scenario under steady 60 % injected fabric demand.
 * The shared spec list the placement identity gates compare on
 * (tests/fleet_test.cpp, tests/cache_test.cpp) — one definition, so
 * the gates cannot desynchronize.
 */
std::vector<core::ScenarioSpec> fig10ScenarioSet(
    std::size_t runs, bool with_contended = true);

/** One-line summary of a campaign (label, exec time, LOIs, golden runs). */
std::string summarize(const core::ProfileSet& set);

/**
 * Summary extended with the guidance-autotuning observable: the LOI
 * yield line gains the run budget the campaign *actually* needed
 * (core::RecordedCampaign::autotuneBudget) next to Table I's static
 * recommendation.
 */
std::string summarize(const core::ProfileSet& set,
                      const core::AutotuneResult& autotune);

/** One normalized-TOI phase of a contention comparison. */
struct ContentionPhase {
    double frac_lo = 0.0;        ///< phase start, fraction of exec time
    double frac_hi = 0.0;        ///< phase end
    double isolated_w = 0.0;     ///< mean isolated SSP power in the phase
    double contended_w = 0.0;    ///< mean contended SSP power in the phase
    std::size_t isolated_lois = 0;
    std::size_t contended_lois = 0;

    /** Contended-vs-isolated power shift, percent (0 when no LOIs). */
    double deltaPct() const;
};

/**
 * Per-phase SSP comparison of the same kernel profiled in isolation and
 * under a scenario environment: execution-time stretch, contended-LOI
 * coverage, and the SSP power delta per normalized-TOI phase (phases are
 * fractions of execution time because the contended execution runs
 * longer — the paper-style per-phase view).
 */
struct ContentionDelta {
    double exec_stretch = 0.0;       ///< contended/isolated SSP exec time
    double ssp_delta_pct = 0.0;      ///< overall mean SSP power shift, %
    double contended_loi_frac = 0.0; ///< contended-flagged share of LOIs
    std::vector<ContentionPhase> phases;
};

/** Compare isolated vs contended ProfileSets of one kernel. */
ContentionDelta contentionDelta(const core::ProfileSet& isolated,
                                const core::ProfileSet& contended,
                                std::size_t phases = 4);

/** Printable per-phase contention-delta table. */
std::string contentionReport(const ContentionDelta& delta);

/** Dump a profile as CSV under ./fingrav_out/<name>.csv (best effort). */
void dumpProfileCsv(const core::PowerProfile& profile,
                    const std::string& name);

/** Print the standard bench header. */
void printHeader(const std::string& experiment, const std::string& claim);

}  // namespace fingrav::analysis

#endif  // FINGRAV_ANALYSIS_REPORT_HPP_
