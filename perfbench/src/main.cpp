/**
 * @file
 * perfbench: the end-to-end benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Runs one workload in this process and prints, as the last line of
 * stdout, {"correct", "attempted", "failed", "metrics"}. With --trace 0
 * the metrics are the end-to-end ones; with --trace 1 the process runs
 * the workload twice, untraced then traced, for half the time each,
 * and prints the per-layer metrics plus trace.overhead.<metric> (traced
 * minus untraced). Exits 1 when an output check fails, 2 on a usage or
 * set-up error.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "kernels/kernel_dispatch.hpp"

namespace {

using namespace perfbench;

std::string
jsonNumber(double value)
{
    // JSON has no infinity: a percentile that fell on a missing verdict
    // is reported as this ceiling (and flagged by served_frac).
    if (!std::isfinite(value))
        value = value > 0 ? 1e12 : -1e12;
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

void
printResult(const Outcome &outcome, bool correct,
            const std::vector<std::pair<std::string, std::string>> &names,
            const Metrics &metrics)
{
    for (const std::string &note : outcome.notes)
        std::cout << "# " << note << "\n";
    for (const auto &[name, unit] : names) {
        auto it = metrics.find(name);
        double value = it != metrics.end() ? it->second.value : 0.0;
        std::cout << "# " << name << " = " << jsonNumber(value) << " " << unit
                  << "\n";
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << outcome.attempted
              << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, unit] : names) {
        auto it = metrics.find(name);
        double value = it != metrics.end() ? it->second.value : 0.0;
        std::cout << (first ? "" : ", ") << "\"" << name
                  << "\": {\"value\": " << jsonNumber(value)
                  << ", \"unit\": \"" << unit << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
}

/** Runs of one workload a host stall may void before the last one is
 *  reported as it is (with hostStalled still set). */
constexpr int kMaxAttempts = 3;

Outcome
runOnce(const std::string &workload, const RunSpec &spec)
{
    Outcome outcome;
    if (workload == "frames-mlp")
        outcome = runFramesMlp(spec);
    else if (workload == "chain-swap")
        outcome = runChainSwap(spec);
    else if (workload == "replay-mix")
        outcome = runReplayMix(spec);
    else if (workload == "compile-tc")
        outcome = runCompileTc(spec);
    else
        throw std::invalid_argument("unknown --workload '" + workload +
                                    "' (frames-mlp|chain-swap|replay-mix|"
                                    "compile-tc)");
    outcome.e2e["peak_rss_mb"] = {procStats().peakRssMb, "MB"};
    return outcome;
}

/**
 * runOnce, measured again from a fresh set-up when the host stalled the
 * benchmark's own open-loop pacer in most windows: such a run measures
 * the host. The pacer runs no code of the program, so a program that
 * is slow cannot trigger a retry by being slow.
 */
Outcome
runWorkload(const std::string &workload, RunSpec spec)
{
    for (int attempt = 1;; ++attempt) {
        Outcome outcome = runOnce(workload, spec);
        if (!outcome.hostStalled || attempt == kMaxAttempts) {
            if (attempt > 1)
                outcome.notes.push_back(
                    "measured " + std::to_string(attempt) +
                    " times: the host stalled the pacer in most windows "
                    "of the earlier runs");
            if (outcome.hostStalled)
                outcome.notes.push_back("WARNING: the host stalled the "
                                        "pacer in most windows");
            return outcome;
        }
        spec.processStartNs = nowNs();
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    RunSpec spec;
    spec.processStartNs = nowNs();
    std::string workload;
    bool trace = false;
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            std::string flag = argv[i];
            std::string value = argv[i + 1];
            if (flag == "--workload")
                workload = value;
            else if (flag == "--seed")
                spec.seed = std::stoull(value);
            else if (flag == "--seconds")
                spec.seconds = std::stod(value);
            else if (flag == "--trace")
                trace = value == "1";
            else
                throw std::invalid_argument("unknown flag " + flag);
        }
        if (argc % 2 == 0 || workload.empty() || !(spec.seconds > 0))
            throw std::invalid_argument(
                "usage: perfbench --workload NAME --seed N --seconds S "
                "--trace 0|1");
        if (std::getenv("HOMUNCULUS_FAULTS") != nullptr)
            throw std::invalid_argument(
                "HOMUNCULUS_FAULTS is set; refusing to measure an armed "
                "fault injector");
    } catch (const std::exception &error) {
        std::cerr << "perfbench: " << error.what() << "\n";
        return 2;
    }

    try {
        namespace kernels = homunculus::kernels;
        const char *env_kernels = std::getenv("HOMUNCULUS_KERNELS");
        std::string kernel_note =
            std::string("kernel target: ") +
            kernels::kernelTargetName(kernels::KernelDispatch::active()) +
            " (" + kernels::KernelDispatch::provenance() +
            "), HOMUNCULUS_KERNELS=" + (env_kernels ? env_kernels : "unset");

        Outcome outcome;
        bool correct = true;
        if (!trace) {
            outcome = runWorkload(workload, spec);
            outcome.notes.insert(outcome.notes.begin(), kernel_note);
            correct = outcome.errors.empty();
            for (const std::string &error : outcome.errors)
                std::cerr << "perfbench: CHECK FAILED: " << error << "\n";
            printResult(outcome, correct, endToEndNames(), outcome.e2e);
            return correct ? 0 : 1;
        }

        RunSpec half = spec;
        half.seconds = spec.seconds / 2;
        half.setups = 1;
        Outcome plain = runWorkload(workload, half);
        half.traced = true;
        half.processStartNs = nowNs();
        outcome = runWorkload(workload, half);
        outcome.notes.insert(outcome.notes.begin(), kernel_note);
        outcome.errors.insert(outcome.errors.end(), plain.errors.begin(),
                              plain.errors.end());
        outcome.attempted += plain.attempted;
        outcome.failed += plain.failed;
        for (const auto &[name, unit] : endToEndNames())
            outcome.layers["trace.overhead." + name] = {
                outcome.e2e[name].value - plain.e2e[name].value, unit};
        outcome.layers["fail_frac"] = {
            outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                        static_cast<double>(outcome.attempted)
                                  : 0.0,
            "ratio"};
        ProcStats proc = procStats();
        outcome.layers["proc.cpu_s"] = {proc.cpuSeconds, "s"};
        outcome.layers["proc.vol_ctx_switches"] = {proc.volCtxSwitches,
                                                   "count"};
        outcome.layers["proc.invol_ctx_switches"] = {proc.involCtxSwitches,
                                                     "count"};
        outcome.layers["kernels.target_id"] = {
            static_cast<double>(kernels::KernelDispatch::active()), "id"};
        correct = outcome.errors.empty();
        for (const std::string &error : outcome.errors)
            std::cerr << "perfbench: CHECK FAILED: " << error << "\n";
        printResult(outcome, correct, perLayerNames(), outcome.layers);
        return correct ? 0 : 1;
    } catch (const std::exception &error) {
        std::cerr << "perfbench: " << workload << " failed: " << error.what()
                  << "\n";
        return 2;
    }
}
