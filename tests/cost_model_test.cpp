/**
 * @file
 * CostModel contract: finite sortable predictions on any input, and
 * features that follow the campaign mechanics.
 *
 * The gates:
 *  - degenerate inputs — an unknown kernel label (the zero-duration
 *    floor path), an empty background list, extreme logger windows —
 *    produce finite positive predictions: no division anywhere, every
 *    sort on predict() is total;
 *  - features follow the campaign mechanics: more runs means more
 *    predicted work, collectives and contended scenarios scale by the
 *    node's device count, background loads only ever add pressure.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "fingrav/cost_model.hpp"
#include "fingrav/scenario.hpp"
#include "sim/machine_config.hpp"
#include "support/time_types.hpp"

namespace fc = fingrav::core;
namespace fs = fingrav::support;

namespace {

fc::ScenarioSpec
spec(const char* label, std::size_t runs)
{
    fc::ScenarioSpec out;
    out.label = label;
    out.seed = 9000;
    out.opts.runs_override = runs;
    out.opts.collect_extra_runs = false;
    return out;
}

}  // namespace

TEST(CostModel, DegenerateInputsPredictFiniteAndPositive)
{
    const auto cfg = fingrav::sim::mi300xConfig();
    const fc::CostModel model;

    // Unknown label: kernelByLabel throws inside features(); the model
    // must absorb it and predict off the floors (the zero-duration
    // path — exec time clamps before the harvest division).
    fc::ScenarioSpec unknown;
    unknown.label = "NOT-A-KERNEL";
    const double p_unknown = model.predict(unknown, cfg);
    EXPECT_TRUE(std::isfinite(p_unknown));
    EXPECT_GT(p_unknown, 0.0);

    // Empty background list (the default): factor stays at 1, nothing
    // divides by the list size.
    const auto plain = spec("MB-2K-GEMV", 4);
    EXPECT_TRUE(plain.background.empty());
    const double p_plain = model.predict(plain, cfg);
    EXPECT_TRUE(std::isfinite(p_plain));
    EXPECT_GT(p_plain, 0.0);

    // Extreme logger windows: a zero-ish window floors harvest at its
    // minimum instead of collapsing executions to zero.
    auto tiny_window = plain;
    tiny_window.opts.logger_window = fs::Duration::micros(1e-9);
    const double p_tiny = model.predict(tiny_window, cfg);
    EXPECT_TRUE(std::isfinite(p_tiny));
    EXPECT_GT(p_tiny, 0.0);

    // A zero-period, zero-demand background load must not divide or go
    // negative — it just adds nothing.
    auto contended = plain;
    fc::BackgroundLoad load;
    load.kind = fc::BackgroundKind::kFabricDemand;
    load.demand = 0.0;
    contended.background.push_back(load);
    const double p_contended = model.predict(contended, cfg);
    EXPECT_TRUE(std::isfinite(p_contended));
    EXPECT_GE(p_contended, p_plain * 0.99);
}

TEST(CostModel, FeaturesFollowCampaignMechanics)
{
    const auto cfg = fingrav::sim::mi300xConfig();
    const fc::CostModel model;

    // More runs, more cost.
    EXPECT_GT(model.predict(spec("CB-2K-GEMM", 24), cfg),
              model.predict(spec("CB-2K-GEMM", 4), cfg));

    // Collectives step the whole node, isolated compute one device.
    const auto collective = model.features(spec("AG-1GB", 4), cfg);
    const auto isolated = model.features(spec("CB-2K-GEMM", 4), cfg);
    EXPECT_DOUBLE_EQ(collective.devices,
                     static_cast<double>(cfg.node_gpus));
    EXPECT_DOUBLE_EQ(isolated.devices, 1.0);

    // Background loads only ever add pressure.
    auto contended = spec("CB-2K-GEMM", 4);
    fc::BackgroundLoad load;
    load.kind = fc::BackgroundKind::kKernel;
    load.kernel = "MB-2K-GEMV";
    contended.background.push_back(load);
    EXPECT_GT(model.features(contended, cfg).background,
              isolated.background);
    EXPECT_GT(model.predict(contended, cfg),
              model.predict(spec("CB-2K-GEMM", 4), cfg));
}
