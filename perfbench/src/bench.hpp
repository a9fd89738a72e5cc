/**
 * @file
 * Shared substrate of the end-to-end benchmark: run options, the
 * outcome every workload returns, percentile helpers, process
 * counters and the one-line JSON result.
 *
 * The benchmark drives the library only through public APIs and takes
 * every timestamp itself; nothing here reaches into src/ internals.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

inline double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/** One run's knobs, from the command line. */
struct RunSpec
{
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< length of the timed phase.
    bool traced = false;    ///< collect per-layer metrics too.
    std::size_t setups = 3; ///< set-ups whose median is setup_s.
    /** main()'s first timestamp: the first set-up counts from here. */
    std::int64_t processStartNs = 0;
};

/** A named number with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** What one workload run produced. */
struct Outcome
{
    Metrics e2e;     ///< end-to-end metrics (always filled).
    Metrics layers;  ///< per-layer metrics (filled when traced).
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;  ///< output-check mismatches.
    std::vector<std::string> notes;   ///< human-readable context.
    /** The host stalled the open-loop pacer in most latency windows, so
     *  the figures describe the host, not the program. */
    bool hostStalled = false;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            errors.push_back(what);
    }
};

/** Nearest-rank percentile (p in [0, 100]); +inf entries sort last. */
double percentile(std::vector<double> values, double p);

double median(std::vector<double> values);


/**
 * Median over @p windows of each window's p-th percentile, leaving out
 * the windows marked in @p stalled (the host stalled the benchmark's
 * own pacer there) unless that would leave fewer than half of them.
 */
double windowedPercentile(const std::vector<std::vector<double>> &windows,
                          double p, const std::vector<bool> &stalled = {});

/** How many windows windowedPercentile leaves out for @p stalled. */
std::size_t excludedWindows(const std::vector<bool> &stalled);

/** More than half of the windows are stalled, so none are left out. */
bool mostlyStalled(const std::vector<bool> &stalled);

/**
 * F1 of @p predicted against @p truth, computed here and not by the
 * library: binary tasks score class 1, multi-class tasks the unweighted
 * mean of per-class F1 (the paper's convention).
 */
double taskF1(const std::vector<int> &truth, const std::vector<int> &predicted,
              int classes);

/** getrusage(RUSAGE_SELF) figures. */
struct ProcStats
{
    double peakRssMb = 0.0;
    double cpuSeconds = 0.0;
    double volCtxSwitches = 0.0;
    double involCtxSwitches = 0.0;
};

ProcStats procStats();

/** A set-up cheaper than this is repeated until the repeats add up to
 *  it, so setup_s is the median of enough samples to be steady. */
constexpr double kMinSetupSeconds = 0.3;

/**
 * Build a workload's set-up spec.setups times or more (see
 * kMinSetupSeconds), recording each one's seconds in @p seconds; the
 * first counts from process start. Each repeat releases the previous
 * set-up before building, and the last one is returned.
 */
template <class Build>
auto
timedSetups(const RunSpec &spec, std::vector<double> &seconds, Build &&build)
{
    std::int64_t first = nowNs();
    auto result = build();
    seconds.push_back(secondsSince(spec.processStartNs));
    while (seconds.size() < spec.setups ||
           (secondsSince(first) < kMinSetupSeconds && seconds.size() < 200)) {
        result = decltype(result)();
        std::int64_t start = nowNs();
        result = build();
        seconds.push_back(secondsSince(start));
    }
    return result;
}

/** The end-to-end metric names, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> &endToEndNames();

/** Every per-layer metric name with its unit, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> &perLayerNames();

/** Workload entry points (one process runs exactly one). */
Outcome runFramesMlp(const RunSpec &spec);
Outcome runChainSwap(const RunSpec &spec);
Outcome runReplayMix(const RunSpec &spec);
Outcome runCompileTc(const RunSpec &spec);

}  // namespace perfbench
