#ifndef FINGRAV_FINGRAV_COST_MODEL_HPP_
#define FINGRAV_FINGRAV_COST_MODEL_HPP_

/**
 * @file
 * Per-spec cost prediction for campaign placement.
 *
 * A campaign's wall-clock cost is predictable from the ScenarioSpec
 * alone: the guidance table fixes the run budget from the kernel's
 * nominal execution time (Table I), the profiler's harvest/SSE
 * machinery fixes executions per run, and the node shape (device count,
 * background loads) scales how much simulated machinery every advance
 * step drags along.  CostModel turns those knobs into one scalar so the
 * fleet scheduler (fingrav/worker_fleet.hpp) can dispatch
 * longest-predicted-first and keep a skewed campaign from straggling
 * behind one long scenario.  predict() returns the raw work product
 * (exec-time x runs x execs-per-run x devices x background factor):
 * unitless, but monotone enough to sort a queue.
 *
 * Prediction only steers placement; results are slot-addressed and
 * bit-identical whatever order the scheduler picks, so a bad prediction
 * costs wall-clock, never correctness.
 */

#include "fingrav/scenario.hpp"
#include "sim/machine_config.hpp"

namespace fingrav::core {

/** The knobs predict() derives from one spec (all >= their floors). */
struct CostFeatures {
    double exec_us = 0.0;       ///< nominal foreground execution time
    double runs = 1.0;          ///< planned run budget incl. top-up headroom
    double execs_per_run = 1.0; ///< SSE warm-ups + harvest region
    double devices = 1.0;       ///< devices the node steps each advance
    double background = 1.0;    ///< environment activity factor (>= 1)

    /** Raw work product — the predicted cost. */
    double
    work() const
    {
        return exec_us * runs * execs_per_run * devices * background;
    }
};

/**
 * Per-spec cost predictor; stateless, deterministic, and safe on
 * degenerate specs — an unknown or zero-duration kernel and an empty
 * background list all produce finite positive predictions (floors, no
 * division anywhere).
 */
class CostModel {
  public:
    /** Derive the cost features of one spec under `cfg`. */
    CostFeatures features(const ScenarioSpec& spec,
                          const sim::MachineConfig& cfg) const;

    /**
     * Predicted cost of executing `spec` under `cfg`: unitless work.
     * Always finite and > 0, so any sort on it is total.
     */
    double predict(const ScenarioSpec& spec,
                   const sim::MachineConfig& cfg) const;
};

}  // namespace fingrav::core

#endif  // FINGRAV_FINGRAV_COST_MODEL_HPP_
