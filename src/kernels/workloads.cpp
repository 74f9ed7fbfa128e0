#include "kernels/workloads.hpp"

#include <charconv>
#include <memory>

#include "support/logging.hpp"

namespace fingrav::kernels {

using support::literals::operator""_KB;
using support::literals::operator""_MB;
using support::literals::operator""_GB;

namespace {

constexpr const char* kShorthandGrammar =
    "gemm:M,N,K | gemv:M | ag:BYTES | ar:BYTES";

/** The `count` positive integers after a shorthand label's prefix of
 *  `prefix` characters (":N" then ",N" each); fatal on anything else. */
std::vector<std::int64_t>
shorthandArgs(const std::string& label, std::size_t prefix, std::size_t count)
{
    std::vector<std::int64_t> out;
    const char* p = label.data() + prefix;
    const char* const end = label.data() + label.size();
    while (p != end && *p == (out.empty() ? ':' : ',')) {
        std::int64_t value = 0;
        const auto [next, ec] = std::from_chars(p + 1, end, value);
        if (ec != std::errc{} || value <= 0)
            break;
        out.push_back(value);
        p = next;
    }
    if (p != end || out.size() != count) {
        support::fatal("kernelByLabel: cannot parse kernel shorthand '",
                       label, "' (", kShorthandGrammar,
                       ", positive integers)");
    }
    return out;
}

}  // namespace

KernelModelPtr
makeSquareGemm(std::int64_t edge, const sim::MachineConfig& cfg)
{
    GemmShape s;
    s.m = edge;
    s.n = edge;
    s.k = edge;
    return std::make_shared<GemmKernel>(s, cfg);
}

KernelModelPtr
makeGemv(std::int64_t edge, const sim::MachineConfig& cfg)
{
    GemmShape s;
    s.m = edge;
    s.n = 1;
    s.k = edge;
    return std::make_shared<GemmKernel>(s, cfg);
}

KernelModelPtr
makeCollective(CollectiveOp op, support::Bytes bytes,
               const sim::MachineConfig& cfg)
{
    return std::make_shared<CollectiveKernel>(op, bytes, cfg);
}

std::vector<KernelModelPtr>
paperGemmKernels(const sim::MachineConfig& cfg)
{
    std::vector<KernelModelPtr> out;
    for (std::int64_t edge : {8192, 4096, 2048}) {
        out.push_back(makeSquareGemm(edge, cfg));
    }
    for (std::int64_t edge : {8192, 4096, 2048}) {
        out.push_back(makeGemv(edge, cfg));
    }
    return out;
}

std::vector<KernelModelPtr>
paperCollectiveKernels(const sim::MachineConfig& cfg)
{
    std::vector<KernelModelPtr> out;
    for (auto op : {CollectiveOp::kAllGather, CollectiveOp::kAllReduce}) {
        for (support::Bytes bytes :
             {64_KB, 128_KB, 512_MB, 1_GB}) {
            out.push_back(makeCollective(op, bytes, cfg));
        }
    }
    return out;
}

std::vector<KernelModelPtr>
paperKernels(const sim::MachineConfig& cfg)
{
    auto out = paperGemmKernels(cfg);
    auto comms = paperCollectiveKernels(cfg);
    out.insert(out.end(), comms.begin(), comms.end());
    return out;
}

KernelModelPtr
kernelByLabel(const std::string& label, const sim::MachineConfig& cfg)
{
    const std::string kind = label.substr(0, label.find(':'));
    if (kind == "gemm") {
        const auto mnk = shorthandArgs(label, kind.size(), 3);
        return std::make_shared<GemmKernel>(
            GemmShape{mnk[0], mnk[1], mnk[2]}, cfg);
    }
    if (kind == "gemv")
        return makeGemv(shorthandArgs(label, kind.size(), 1)[0], cfg);
    if (kind == "ag" || kind == "ar") {
        return makeCollective(kind == "ag" ? CollectiveOp::kAllGather
                                           : CollectiveOp::kAllReduce,
                              shorthandArgs(label, kind.size(), 1)[0], cfg);
    }

    const auto all = paperKernels(cfg);
    for (auto& k : all) {
        if (k->label() == label)
            return k;
    }
    std::string available;
    for (const auto& k : all) {
        if (!available.empty())
            available += ", ";
        available += k->label();
    }
    support::fatal("kernelByLabel: unknown kernel '", label,
                   "'; available paper labels: ", available, "; or ",
                   kShorthandGrammar);
}

}  // namespace fingrav::kernels
