/**
 * @file
 * Pieces the two open-loop serving workloads share: the preallocated
 * verdict slots the callback writes into, the open-loop pacer, and the
 * readers that turn MetricRegistry snapshots into per-layer metrics.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "runtime/telemetry.hpp"

namespace perfbench {

namespace telemetry = homunculus::runtime::telemetry;

/**
 * One slot per ticket, written by the verdict callback on the batcher
 * thread: a completion timestamp and the label. No lock, no
 * allocation; the producer reads the slots only after Server::stop()
 * has joined the batcher.
 */
struct VerdictSlots
{
    explicit VerdictSlots(std::size_t capacity)
        : doneNs(capacity, 0), verdict(capacity, -1)
    {
    }

    /** Tickets count up from 1, so ticket t lives in slot t - 1. */
    void
    record(std::uint64_t ticket, int label)
    {
        std::size_t slot = static_cast<std::size_t>(ticket - 1);
        if (slot < doneNs.size()) {
            doneNs[slot] = nowNs();
            verdict[slot] = static_cast<std::int8_t>(label);
        }
        delivered.fetch_add(1, std::memory_order_release);
    }

    std::vector<std::int64_t> doneNs;
    std::vector<std::int8_t> verdict;
    std::atomic<std::uint64_t> delivered{0};
};

/** A gap this long between two clock reads of the pacer's spin means
 *  the host took the CPU away from the benchmark; the program under
 *  test runs no code there. */
constexpr std::int64_t kHostStallNs = 1'000'000;

/** Busy-wait until @p due_ns (steady clock); returns the time it
 *  actually stopped waiting, and sets @p stalled when the spin saw a
 *  host stall. A sleeping pacer would add the scheduler's wake-up
 *  latency to every request. */
inline std::int64_t
waitUntil(std::int64_t due_ns, bool &stalled)
{
    std::int64_t now = nowNs();
    while (now < due_ns) {
        std::int64_t next = nowNs();
        stalled |= next - now > kHostStallNs;
        now = next;
    }
    return now;
}

/** Counter value after minus before (counters are monotonic). */
inline double
counterDelta(const telemetry::MetricsSnapshot &before,
             const telemetry::MetricsSnapshot &after,
             const std::string &name, const telemetry::Labels &labels = {})
{
    return static_cast<double>(after.counterValue(name, labels) -
                               before.counterValue(name, labels));
}

inline double
sumDelta(const telemetry::MetricsSnapshot &before,
         const telemetry::MetricsSnapshot &after, const std::string &name)
{
    return static_cast<double>(after.sumCounters(name) -
                               before.sumCounters(name));
}

/** Every admitted request resolved exactly once:
 *  served + failed + early-dropped == accepted (all lanes). */
inline bool
partitionHolds(const telemetry::MetricsSnapshot &snapshot)
{
    return snapshot.counterValue("server.rows_served") +
               snapshot.counterValue("server.failed_rows") +
               snapshot.sumCounters("queue.early_dropped") ==
           snapshot.sumCounters("queue.accepted");
}

/** A snapshot histogram's percentile (p in [0, 100]); 0 when absent. */
inline double
snapshotPercentile(const telemetry::MetricsSnapshot &snapshot,
                   const std::string &name, const telemetry::Labels &labels,
                   double p)
{
    const auto *entry = snapshot.find(name, labels);
    return entry != nullptr ? entry->percentile(p) : 0.0;
}

/** queue.laneN.* from the queue's and server's lane instruments. */
inline void
addLaneMetrics(Metrics &layers, const telemetry::MetricsSnapshot &before,
               const telemetry::MetricsSnapshot &after, std::size_t lane)
{
    telemetry::Labels labels{{"lane", std::to_string(lane)}};
    std::string base = "queue.lane" + std::to_string(lane) + ".";
    for (const char *counter :
         {"accepted", "shed", "early_dropped", "block_timeouts",
          "size_flushes", "deadline_flushes", "aged_flushes"})
        layers[base + counter] = {
            counterDelta(before, after, std::string("queue.") + counter,
                         labels),
            "count"};
    double batches =
        counterDelta(before, after, "server.lane.batches", labels);
    double rows =
        counterDelta(before, after, "server.lane.rows_served", labels);
    layers[base + "mean_batch_rows"] = {batches > 0 ? rows / batches : 0.0,
                                        "rows"};
}

/** server.* batcher metrics and router.* per-model metrics. */
inline void
addBatcherMetrics(Metrics &layers, const telemetry::MetricsSnapshot &before,
                  const telemetry::MetricsSnapshot &after,
                  const std::vector<std::string> &models)
{
    layers["server.batches"] = {
        counterDelta(before, after, "server.batches"), "count"};
    layers["server.batch_exec_us.p50"] = {
        snapshotPercentile(after, "server.batch_latency_us", {}, 50), "us"};
    layers["server.batch_exec_us.p99"] = {
        snapshotPercentile(after, "server.batch_latency_us", {}, 99), "us"};
    layers["server.failed_rows"] = {
        counterDelta(before, after, "server.failed_rows"), "count"};
    layers["server.retried_batches"] = {
        counterDelta(before, after, "server.retried_batches"), "count"};
    layers["server.callback_errors"] = {
        counterDelta(before, after, "server.callback_errors"), "count"};
    layers["router.fallback_rows"] = {
        counterDelta(before, after, "server.fallback_rows"), "count"};
    layers["router.deadline_truncated"] = {
        counterDelta(before, after, "server.deadline_truncated"), "count"};
    for (const std::string &model : models) {
        telemetry::Labels labels{{"model", model}};
        layers["router.hop_rows." + model] = {
            counterDelta(before, after, "router.hop_rows", labels), "rows"};
        layers["router.step_us.p50." + model] = {
            snapshotPercentile(after, "server.model.step_latency_us", labels,
                               50),
            "us"};
        layers["router.step_us.p99." + model] = {
            snapshotPercentile(after, "server.model.step_latency_us", labels,
                               99),
            "us"};
    }
}

}  // namespace perfbench
