/**
 * @file
 * Collective payload sweep: where is the latency/bandwidth boundary, and
 * what does it do to power?
 *
 * The paper classifies a collective size as latency-bound "if collective
 * latency at/before this size does not increase commensurate to
 * data-transfer size".  This example sweeps all-gather and all-reduce
 * payloads across five orders of magnitude on the 8-GPU node, prints the
 * measured latency curve, the classification boundary, and the FinGraV
 * SSP power at selected sizes.
 */

#include <iostream>
#include <vector>

#include "analysis/report.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/profiler.hpp"
#include "kernels/collective.hpp"
#include "kernels/workloads.hpp"
#include "runtime/host_runtime.hpp"
#include "sim/machine_config.hpp"
#include "sim/simulation.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace an = fingrav::analysis;
namespace fc = fingrav::core;
namespace fk = fingrav::kernels;
namespace fs = fingrav::support;
using namespace fingrav::support::literals;

int
main()
{
    const auto cfg = fingrav::sim::mi300xConfig();

    std::cout << "8-GPU node, " << cfg.fabric_links << " links x "
              << cfg.fabric_link_bandwidth / 1e9 << " GB/s per GPU\n\n";

    // --- latency sweep and classification --------------------------------
    const std::vector<fs::Bytes> sizes{
        16_KB, 64_KB, 128_KB, 512_KB, 2_MB, 8_MB, 32_MB, 128_MB, 512_MB,
        1_GB};
    for (const auto op :
         {fk::CollectiveOp::kAllGather, fk::CollectiveOp::kAllReduce}) {
        fs::TableWriter table({"payload", "latency (us)", "alpha share",
                               "class"});
        fs::Bytes crossover = 0;
        for (const auto bytes : sizes) {
            const fk::CollectiveKernel k(op, bytes, cfg);
            const auto b = k.boundedness();
            if (crossover == 0 &&
                b == fk::CollectiveBoundedness::kBandwidthBound) {
                crossover = bytes;
            }
            std::string payload =
                bytes >= 1_GB
                    ? std::to_string(bytes / 1_GB) + " GB"
                    : (bytes >= 1_MB
                           ? std::to_string(bytes / 1_MB) + " MB"
                           : std::to_string(bytes / 1_KB) + " KB");
            table.addRow({payload,
                          fs::TableWriter::num(
                              k.nominalDuration().toMicros(), 1),
                          fs::TableWriter::num(k.alphaShare(), 3),
                          toString(b)});
        }
        std::cout << toString(op) << " sweep:\n";
        table.print(std::cout);
        std::cout << "latency->bandwidth crossover near "
                  << crossover / 1_MB << " MB\n\n";
    }

    // --- FinGraV power at the paper's four sizes ---------------------------
    fc::ProfilerOptions opts;
    opts.runs_override = 60;
    fs::TableWriter power({"kernel", "exec (us)", "total (W)", "IOD (W)",
                           "fabric-heavy?"});
    // Four independent collective campaigns over the campaign engine.
    const std::vector<std::string> labels{"AG-64KB", "AG-1GB", "AR-64KB",
                                          "AR-1GB"};
    std::vector<fc::ScenarioSpec> specs;
    std::uint64_t seed = 31;
    for (const auto& l : labels)
        specs.push_back({l, seed++, opts});
    const auto sets = fc::CampaignRunner().run(specs);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        const auto& label = labels[i];
        const auto& set = sets[i];
        power.addRow(
            {label,
             fs::TableWriter::num(set.measured_exec_time.toMicros(), 1),
             fs::TableWriter::num(set.ssp.meanPower(fc::Rail::kTotal), 1),
             fs::TableWriter::num(set.ssp.meanPower(fc::Rail::kIod), 1),
             set.ssp.meanPower(fc::Rail::kIod) >
                     set.ssp.meanPower(fc::Rail::kXcd)
                 ? "yes"
                 : "no"});
    }
    std::cout << "FinGraV SSP power at the paper's sizes:\n";
    power.print(std::cout);
    std::cout << "\nBandwidth-bound collectives are IOD-dominated "
                 "(Infinity-Fabric SerDes) — the paper's Fig. 10 story.\n";
    return 0;
}
